package oracle

import (
	"errors"
	"fmt"
	"testing"
)

var errInjected = errors.New("injected fault")

func TestTransientMarkSurvivesWrapping(t *testing.T) {
	err := Transient(errInjected)
	if !IsTransient(err) {
		t.Fatal("direct mark not detected")
	}
	wrapped := fmt.Errorf("retry 3: %w", err)
	if !IsTransient(wrapped) {
		t.Fatal("mark lost through %w wrapping")
	}
	if !errors.Is(wrapped, errInjected) {
		t.Fatal("underlying error lost")
	}
	if IsTransient(errInjected) {
		t.Fatal("unmarked error reported transient")
	}
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) must stay nil")
	}
}

func TestAsFallibleRecoversFailurePanics(t *testing.T) {
	// A black box whose Oracle face panics with *Failure after two
	// queries, the way a dead transport does, memoized, then lifted back:
	// the error must come out as a value, not a panic.
	calls := 0
	inner := &FuncOracle{
		Ins:  []string{"a", "b"},
		Outs: []string{"z"},
		F: func(a []bool) []bool {
			if calls++; calls > 2 {
				panic(NewFailure(errInjected))
			}
			return []bool{a[0] != a[1]}
		},
	}
	f := AsFallible(NewMemo(inner))
	if _, err := f.TryEval([]bool{true, false}); err != nil {
		t.Fatalf("healthy query failed: %v", err)
	}
	if _, err := f.TryEval([]bool{false, true}); err != nil {
		t.Fatalf("healthy query failed: %v", err)
	}
	_, err := f.TryEval([]bool{true, true})
	if !errors.Is(err, errInjected) {
		t.Fatalf("got %v, want the injected fault as a value", err)
	}
	// The memoized response must still be served (no wire hit: inner would
	// fail it).
	if out, err := f.TryEval([]bool{true, false}); err != nil || !out[0] {
		t.Fatalf("memoized replay broken after failure: %v %v", out, err)
	}
}

func TestAsFallibleDoesNotEatOtherPanics(t *testing.T) {
	f := AsFallible(&FuncOracle{
		Ins:  []string{"a"},
		Outs: []string{"z"},
		F:    func([]bool) []bool { panic("not a transport failure") },
	})
	defer func() {
		if recover() == nil {
			t.Fatal("non-Failure panic was swallowed")
		}
	}()
	f.TryEval([]bool{true})
}
