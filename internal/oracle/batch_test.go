package oracle_test

// Equivalence guarantee of the batched query engine: EvalBatch must be
// bitwise identical to looping scalar Eval, for every oracle wrapper, on all
// 20 benchmark cases. (External test package: internal/cases itself imports
// internal/oracle.)

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"logicregression/internal/bitvec"
	"logicregression/internal/cases"
	"logicregression/internal/oracle"
)

// randomLanes draws n random patterns for an nIn-input oracle, seeded.
func randomLanes(rng *rand.Rand, nIn, n int) []bitvec.Word {
	w := oracle.Words(n)
	lanes := make([]bitvec.Word, nIn*w)
	for i := range lanes {
		lanes[i] = rng.Uint64()
	}
	// Zero the tails so scalar reconstruction sees the same don't-cares.
	if r := uint(n) & 63; r != 0 {
		for i := 0; i < nIn; i++ {
			lanes[i*w+w-1] &= 1<<r - 1
		}
	}
	return lanes
}

// scalarReference evaluates every pattern with one Eval call each.
func scalarReference(o oracle.Oracle, lanes []bitvec.Word, n int) []bitvec.Word {
	w := oracle.Words(n)
	out := make([]bitvec.Word, o.NumOutputs()*w)
	a := make([]bool, o.NumInputs())
	for k := 0; k < n; k++ {
		for i := range a {
			a[i] = lanes[i*w+k>>6]>>(uint(k)&63)&1 == 1
		}
		for j, bit := range o.Eval(a) {
			if bit {
				out[j*w+k>>6] |= 1 << (uint(k) & 63)
			}
		}
	}
	return out
}

func assertLanesEqual(t *testing.T, name string, got, want []bitvec.Word, nOut, n int) {
	t.Helper()
	w := oracle.Words(n)
	for j := 0; j < nOut; j++ {
		for b := 0; b < w; b++ {
			mask := ^bitvec.Word(0)
			if last := n - b*64; last < 64 {
				mask = 1<<uint(last) - 1
			}
			if got[j*w+b]&mask != want[j*w+b]&mask {
				t.Fatalf("%s: output %d word %d: got %016x want %016x",
					name, j, b, got[j*w+b]&mask, want[j*w+b]&mask)
			}
		}
	}
}

// assertOutputEqual checks a one-output answer: exactly Words(n) words,
// equal to lane po of the reference over the live patterns.
func assertOutputEqual(t *testing.T, name string, got, want []bitvec.Word, po, n int) {
	t.Helper()
	w := oracle.Words(n)
	if len(got) != w {
		t.Fatalf("%s: output %d: %d words for %d patterns", name, po, len(got), n)
	}
	assertLanesEqual(t, fmt.Sprintf("%s output %d", name, po), got, want[po*w:(po+1)*w], 1, n)
}

// TestEvalBatchParityAllCases is the seeded fuzz/parity sweep over every
// benchmark oracle: the circuit-backed batch path, the lifted scalar
// adapter, and the Counter/Memo/Recorder wrappers must all agree with the
// scalar reference bit for bit. EvalOutput must return the reference's lane
// for every output: from the output's cone on the circuit oracle and
// through a Counter over it, and by the whole-batch fallback on the Memo
// and ScalarOnly boxes (at one small n: ScalarOnly re-evaluates the whole
// batch per output).
func TestEvalBatchParityAllCases(t *testing.T) {
	for _, cs := range cases.All() {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			o := cs.Oracle()
			rng := rand.New(rand.NewSource(int64(len(cs.Name)) * 7919))
			// 1100 patterns span 18 words: one full 16-word kernel pass
			// plus a short one.
			for _, n := range []int{1, 63, 64, 200, 1100} {
				lanes := randomLanes(rng, o.NumInputs(), n)
				want := scalarReference(o, lanes, n)

				got := oracle.EvalBatch(o, lanes, n)
				assertLanesEqual(t, "circuit-batch", got, want, o.NumOutputs(), n)

				lifted := oracle.AsBatch(oracle.ScalarOnly(o)).EvalBatch(lanes, n)
				assertLanesEqual(t, "lifted-scalar", lifted, want, o.NumOutputs(), n)

				counted := oracle.NewCounter(o)
				assertLanesEqual(t, "counter", counted.EvalBatch(lanes, n), want, o.NumOutputs(), n)
				if counted.Queries() != int64(n) {
					t.Fatalf("counter charged %d queries for a %d-batch", counted.Queries(), n)
				}

				memo := oracle.NewMemoCap(o, 4096)
				assertLanesEqual(t, "memo-cold", memo.EvalBatch(lanes, n), want, o.NumOutputs(), n)
				assertLanesEqual(t, "memo-warm", memo.EvalBatch(lanes, n), want, o.NumOutputs(), n)

				w := oracle.Words(n)
				counted = oracle.NewCounter(o)
				for po := 0; po < o.NumOutputs(); po++ {
					cone := oracle.EvalOutput(o, lanes, n, po)
					assertOutputEqual(t, "cone", cone, want, po, n)
					if !slices.Equal(cone, got[po*w:(po+1)*w]) {
						t.Fatalf("cone output %d differs from the batch lane beyond the live patterns", po)
					}
					assertOutputEqual(t, "counter-cone", oracle.EvalOutput(counted, lanes, n, po), want, po, n)
					if q := counted.Queries(); q != int64(n)*int64(po+1) {
						t.Fatalf("counter charged %d queries after %d one-output calls of %d", q, po+1, n)
					}
				}
				if n == 63 {
					scalar := oracle.ScalarOnly(o)
					for po := 0; po < o.NumOutputs(); po++ {
						assertOutputEqual(t, "memo-output", oracle.EvalOutput(memo, lanes, n, po), want, po, n)
						assertOutputEqual(t, "scalar-output", oracle.EvalOutput(scalar, lanes, n, po), want, po, n)
					}
				}
			}
		})
	}
}

// TestCircuitOracleConcurrentBatches drives one CircuitOracle (as Shared
// hands it out) from several goroutines with batches of different widths,
// so the pooled evaluators are borrowed, regrown and returned concurrently.
// Between batches each goroutine asks one output through EvalOutput, on POs
// staggered so that several goroutines build the same and different cones
// at once. Every answer must equal the one computed alone beforehand; run
// under -race this is the safety witness of the pool and of the cones'
// first builds.
func TestCircuitOracleConcurrentBatches(t *testing.T) {
	cs, err := cases.ByName("case_14") // 9030 nodes
	if err != nil {
		t.Fatal(err)
	}
	o := cs.Oracle()
	rng := rand.New(rand.NewSource(3))
	sizes := []int{1, 64, 700, 1024, 1500, 3000}
	lanes := make([][]bitvec.Word, len(sizes))
	want := make([][]bitvec.Word, len(sizes))
	for i, n := range sizes {
		lanes[i] = randomLanes(rng, o.NumInputs(), n)
		want[i] = oracle.EvalBatch(o, lanes[i], n)
	}
	nPO := o.NumOutputs()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := oracle.Shared(o)
			for round := 0; round < 3; round++ {
				for j := range sizes {
					i := (j + g) % len(sizes)
					n := sizes[i]
					got := oracle.EvalBatch(h, lanes[i], n)
					if !slices.Equal(got, want[i]) {
						t.Errorf("goroutine %d, %d patterns: batch differs", g, n)
						return
					}
					po := (round*len(sizes) + j + g/2) % nPO
					w := oracle.Words(n)
					if !slices.Equal(oracle.EvalOutput(h, lanes[i], n, po), want[i][po*w:(po+1)*w]) {
						t.Errorf("goroutine %d, %d patterns: output %d differs", g, n, po)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchTranscriptRecordReplay pushes a batch through a Recorder and
// reads the transcript back: it must hold one line per pattern, in pattern
// order, each the pattern's inputs and the batch's answer for it.
func TestBatchTranscriptRecordReplay(t *testing.T) {
	cs, err := cases.ByName("case_10")
	if err != nil {
		t.Fatal(err)
	}
	o := cs.Oracle()
	var buf bytes.Buffer
	rec, err := oracle.NewRecorder(o, &buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 130
	rng := rand.New(rand.NewSource(99))
	lanes := randomLanes(rng, o.NumInputs(), n)
	want := rec.EvalBatch(lanes, n)
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}

	tr, err := oracle.NewTranscriptReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Identity.Equal(oracle.IdentityOf(o)) {
		t.Fatalf("header identity %v, want %v", tr.Identity, oracle.IdentityOf(o))
	}
	w := oracle.Words(n)
	bit := func(lanes []bitvec.Word, i, p int) bool { return lanes[i*w+p/64]>>(uint(p)&63)&1 == 1 }
	for p := 0; p < n; p++ {
		in, out, err := tr.Next()
		if err != nil {
			t.Fatalf("pattern %d: %v", p, err)
		}
		for i, b := range in {
			if b != bit(lanes, i, p) {
				t.Fatalf("pattern %d: input %d read back as %v", p, i, b)
			}
		}
		for j, b := range out {
			if b != bit(want, j, p) {
				t.Fatalf("pattern %d: output %d read back as %v", p, j, b)
			}
		}
	}
	if _, _, err := tr.Next(); err != io.EOF {
		t.Fatalf("after %d patterns: %v, want io.EOF", n, err)
	}
}
