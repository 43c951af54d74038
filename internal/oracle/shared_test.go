package oracle_test

// Concurrent-session stress for oracle.Shared: many goroutines query one
// shared handle with interleaved scalar and batch queries. Run under -race
// this is the safety witness for the serve layer, which hands the one
// handle to every connection, session and job.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"logicregression/internal/bitvec"
	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
)

func stressBox() *circuit.Circuit {
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	d := c.AddPI("d")
	e := c.AddPI("e")
	c.AddPO("x", c.Xor(c.And(a, b), d))
	c.AddPO("y", c.Or(c.Xor(a, e), c.And(b, d)))
	c.AddPO("z", c.And(c.Or(a, e), c.Xor(b, d)))
	return c
}

// golden precomputes every output for all 2^n assignments.
func goldenTable(c *circuit.Circuit) [][]bool {
	n := c.NumPI()
	table := make([][]bool, 1<<n)
	assign := make([]bool, n)
	for m := range table {
		for i := 0; i < n; i++ {
			assign[i] = m>>i&1 == 1
		}
		table[m] = c.Eval(assign)
	}
	return table
}

func TestSharedConcurrentSessions(t *testing.T) {
	box := stressBox()
	base := oracle.FromCircuit(box)
	table := goldenTable(box)
	nIn := base.NumInputs()
	nOut := base.NumOutputs()

	const sessions = 32
	const opsPerSession = 300

	// Every session also drives its own memo over the handle — the exact
	// chain the serve layer builds — and a shared memo is hammered by all
	// sessions at once to stress the atomic hit/miss/eviction counters.
	handle := oracle.Shared(base)
	if handle != oracle.Oracle(base) {
		t.Fatal("Shared wrapped a CircuitOracle instead of returning it")
	}
	shared := oracle.NewMemoCap(handle, 64)

	var wg sync.WaitGroup
	errs := make(chan string, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			mine := oracle.NewMemoCap(handle, 32)
			assign := make([]bool, nIn)
			for op := 0; op < opsPerSession; op++ {
				m := (sid*opsPerSession + op*7) % len(table)
				for i := 0; i < nIn; i++ {
					assign[i] = m>>i&1 == 1
				}
				var got []bool
				switch op % 3 {
				case 0:
					got = mine.Eval(assign)
				case 1:
					got = shared.Eval(assign)
				default:
					// One-pattern batch through the word-parallel path.
					lanes := make([]bitvec.Word, nIn)
					for i := 0; i < nIn; i++ {
						if assign[i] {
							lanes[i] = 1
						}
					}
					out := mine.EvalBatch(lanes, 1)
					got = make([]bool, nOut)
					for j := 0; j < nOut; j++ {
						got[j] = out[j]&1 == 1
					}
				}
				for j := 0; j < nOut; j++ {
					if got[j] != table[m][j] {
						errs <- "shared handle diverged from golden table"
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// The shared memo's atomic stats must account for exactly the queries
	// sent its way: one Eval per op%3==1 across all sessions.
	st := shared.Stats()
	wantShared := int64(sessions * opsPerSession / 3)
	if st.Hits+st.Misses != wantShared {
		t.Fatalf("shared memo hits+misses = %d, want %d", st.Hits+st.Misses, wantShared)
	}
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("shared memo stats %+v: want both hits and misses under contention", st)
	}
}

// unsafeBox is a black box that is not safe for concurrent use: a plain
// call counter, and an in-flight gauge that records the most calls ever
// inside it at once. Every fifth call fails transiently.
type unsafeBox struct {
	oracle.Oracle
	calls           int64
	inFlight, maxIn atomic.Int64
}

func (b *unsafeBox) TryEval(a []bool) ([]bool, error) {
	n := b.inFlight.Add(1)
	defer b.inFlight.Add(-1)
	for m := b.maxIn.Load(); n > m; m = b.maxIn.Load() {
		if b.maxIn.CompareAndSwap(m, n) {
			break
		}
	}
	b.calls++
	if b.calls%5 == 0 {
		return nil, oracle.Transient(errors.New("hiccup"))
	}
	return b.Oracle.Eval(a), nil
}

func (b *unsafeBox) Eval(a []bool) []bool {
	out, err := b.TryEval(a)
	if err != nil {
		panic(oracle.NewFailure(err))
	}
	return out
}

// TestSharedSerializesUnsafeBox: one handle on a box that is not safe for
// concurrent use lets a single call in at a time through every query form,
// keeps the box's transient errors on the error-returning paths, and is
// its own handle.
func TestSharedSerializesUnsafeBox(t *testing.T) {
	box := &unsafeBox{Oracle: oracle.FromCircuit(stressBox())}
	h := oracle.Shared(box)
	if oracle.Shared(h) != h {
		t.Fatal("Shared wrapped a handle it returned")
	}
	fb, ok := h.(oracle.FallibleBatch)
	if !ok {
		t.Fatal("the shared handle lost the error-returning query paths")
	}
	// The panicking paths, read back as errors through the Failure bridge.
	pf := oracle.AsFallible(struct{ oracle.BatchOracle }{h.(oracle.BatchOracle)})
	const goroutines = 16
	const per = 100
	var wg sync.WaitGroup
	var transient atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			assign := make([]bool, h.NumInputs())
			lanes := make([]bitvec.Word, h.NumInputs())
			for i := 0; i < per; i++ {
				var err error
				switch (g + i) % 4 {
				case 0:
					_, err = fb.TryEval(assign)
				case 1:
					_, err = fb.TryEvalBatch(lanes, 1)
				case 2:
					_, err = pf.TryEval(assign)
				default:
					_, err = pf.TryEvalBatch(lanes, 1)
				}
				if err == nil {
					continue
				}
				if !oracle.IsTransient(err) {
					t.Errorf("error lost its transient class: %v", err)
					return
				}
				transient.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if box.calls != goroutines*per {
		t.Fatalf("box saw %d calls, want %d", box.calls, goroutines*per)
	}
	if got := box.maxIn.Load(); got != 1 {
		t.Fatalf("%d calls were inside the box at once, want 1", got)
	}
	if transient.Load() != goroutines*per/5 {
		t.Fatalf("%d transient errors, want %d", transient.Load(), goroutines*per/5)
	}
}
