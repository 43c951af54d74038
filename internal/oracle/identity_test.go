package oracle

import (
	"strings"
	"testing"
)

func TestIdentityOf(t *testing.T) {
	o := &FuncOracle{
		Ins:  []string{"a", "b", "c"},
		Outs: []string{"z"},
		F:    func(a []bool) []bool { return []bool{a[0]} },
	}
	id := IdentityOf(o)
	if !id.Equal(Identity{Ins: []string{"a", "b", "c"}, Outs: []string{"z"}}) {
		t.Fatalf("IdentityOf = %v", id)
	}
	if id.IsZero() {
		t.Fatal("non-empty identity reported zero")
	}
	if (Identity{}).IsZero() != true {
		t.Fatal("zero identity not reported zero")
	}

	// The identity survives wrapper stacking.
	wrapped := IdentityOf(NewCounter(NewMemo(o)))
	if !wrapped.Equal(id) {
		t.Fatalf("wrapped identity %v != %v", wrapped, id)
	}
}

func TestIdentityHashDiscriminates(t *testing.T) {
	base := Identity{Ins: []string{"a", "b"}, Outs: []string{"z"}}
	variants := []Identity{
		{Ins: []string{"b", "a"}, Outs: []string{"z"}},         // order matters
		{Ins: []string{"a"}, Outs: []string{"b", "z"}},         // port side matters
		{Ins: []string{"a", "b"}, Outs: []string{"w"}},         // names matter
		{Ins: []string{"a", "b", "c"}, Outs: []string{"z"}},    // arity matters
		{Ins: []string{"a b"}, Outs: []string{"z"}},            // no name smuggling
		{Ins: []string{"a", "b"}, Outs: []string{"z", "outs"}}, // keyword collision
	}
	seen := map[string]bool{base.Hash(): true}
	for _, v := range variants {
		if base.Equal(v) {
			t.Errorf("Equal(%v, %v) = true", base, v)
		}
		h := v.Hash()
		if len(h) != 64 {
			t.Fatalf("hash %q not 64 hex chars", h)
		}
		if seen[h] {
			t.Errorf("hash collision for %v", v)
		}
		seen[h] = true
	}
	if base.Hash() != (Identity{Ins: []string{"a", "b"}, Outs: []string{"z"}}).Hash() {
		t.Error("equal identities hash differently")
	}
}

func TestIdentityString(t *testing.T) {
	id := Identity{Ins: []string{"a", "b"}, Outs: []string{"z"}}
	s := id.String()
	if !strings.HasPrefix(s, "2-in/1-out ") {
		t.Fatalf("String = %q", s)
	}
}
