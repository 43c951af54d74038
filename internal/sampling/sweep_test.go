package sampling

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"logicregression/internal/bitvec"
	"logicregression/internal/cases"
	"logicregression/internal/oracle"
	"logicregression/internal/sop"
)

// referenceSampling is PatternSampling as a per-input loop: for each free
// input, draw its R patterns, then issue alpha_i and alpha_not_i as two
// batches of R. The batched sweep must match it query for query: same
// Result, same RNG consumption, same patterns in the same order.
func referenceSampling(o oracle.Oracle, out int, cube sop.Cube, cfg Config, rng RNG) Result {
	n := o.NumInputs()
	res := Result{D: make([]int, n)}
	constrained := make([]bool, n)
	for _, l := range cube {
		constrained[l.Var] = true
		res.D[l.Var] = -1
	}
	inCand := make([]bool, n)
	for _, i := range cfg.Candidates {
		inCand[i] = true
	}
	for i := 0; i < n; i++ {
		if !constrained[i] && (cfg.Candidates == nil || inCand[i]) {
			res.Free = append(res.Free, i)
		}
	}
	if cfg.R <= 0 || len(res.Free) == 0 {
		return res
	}
	ratios := cfg.ratios()
	words := (cfg.R + 63) / 64
	ones := 0
	ratioIdx := 0
	b := oracle.AsBatch(o)
	lanes := make([]uint64, n*words)
	for _, i := range res.Free {
		for w := 0; w < words; w++ {
			p := ratios[ratioIdx%len(ratios)]
			ratioIdx++
			for j := 0; j < n; j++ {
				lanes[j*words+w] = BiasedWord(rng, p)
			}
			for _, l := range cube {
				if l.Neg {
					lanes[l.Var*words+w] = 0
				} else {
					lanes[l.Var*words+w] = ^uint64(0)
				}
			}
		}
		lane := lanes[i*words : (i+1)*words]
		for w := range lane {
			lane[w] = ^uint64(0)
		}
		out1 := b.EvalBatch(lanes, cfg.R)[out*words : (out+1)*words]
		for w := range lane {
			lane[w] = 0
		}
		out0 := b.EvalBatch(lanes, cfg.R)[out*words : (out+1)*words]
		remaining := cfg.R
		for w := 0; w < words; w++ {
			batch := min(remaining, 64)
			remaining -= batch
			mask := maskLow(batch)
			res.D[i] += popcount((out1[w] ^ out0[w]) & mask)
			ones += popcount(out1[w]&mask) + popcount(out0[w]&mask)
			res.Samples += 2 * batch
		}
	}
	if res.Samples > 0 {
		res.TruthRatio = float64(ones) / float64(res.Samples)
	}
	return res
}

func caseOracle(t *testing.T, name string) oracle.Oracle {
	t.Helper()
	cs, err := cases.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return cs.Oracle()
}

// wideBox is the second, wider box of the identity tests: output 1 of
// case_18, whose 102 inputs make more lanes than a word has bits and a lane
// count that is not a multiple of 8. The cube binds one of the 30 inputs
// an R 768 sweep finds in the output's support and one outside it; the
// candidates are those 30 and both bound inputs.
func wideBox(t *testing.T) (o oracle.Oracle, out int, cube sop.Cube, cands []int) {
	t.Helper()
	cube, _ = sop.NewCube(sop.Literal{Var: 9, Neg: false}, sop.Literal{Var: 40, Neg: true})
	cands = []int{0, 8, 9, 12, 14, 15, 16, 17, 19, 23, 25, 26, 31, 33, 35, 37, 39, 40,
		42, 48, 51, 53, 54, 57, 59, 72, 73, 74, 76, 83, 101}
	return caseOracle(t, "case_18"), 1, cube, cands
}

// sweepShape is one box, output, cube and candidate set an identity test
// sweeps at every R it lists.
type sweepShape struct {
	name  string
	o     oracle.Oracle
	out   int
	cube  sop.Cube
	cands []int
}

// sweepShapes returns output 1 of case_10 (37 inputs) with and without
// cube and with and without cands, and the wide box.
func sweepShapes(t *testing.T, cube sop.Cube, cands []int) []sweepShape {
	t.Helper()
	o := caseOracle(t, "case_10")
	var shapes []sweepShape
	for _, cb := range []sop.Cube{nil, cube} {
		for _, cand := range [][]int{nil, cands} {
			shapes = append(shapes, sweepShape{fmt.Sprintf("cube=%d/cands=%d", len(cb), len(cand)), o, 1, cb, cand})
		}
	}
	wo, wout, wcube, wcands := wideBox(t)
	return append(shapes, sweepShape{"case_18", wo, wout, wcube, wcands})
}

// TestPatternSamplingMatchesReference compares the batched sweep with the
// per-input reference across R (one pattern, the tree's 60, exactly one
// word, one past a word, two words unaligned and aligned, the benchmark's
// support R, and 5000, three sub-batches a call with pairs split across
// calls off a word boundary), with and without a cube, and with and
// without a candidate set that includes cube-bound inputs, on case_10 and
// on the wide box.
func TestPatternSamplingMatchesReference(t *testing.T) {
	cube, _ := sop.NewCube(sop.Literal{Var: 3, Neg: false}, sop.Literal{Var: 7, Neg: true})
	cands := []int{0, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
	shapes := sweepShapes(t, cube, cands)
	for _, r := range []int{1, 60, 64, 65, 100, 128, 768, 5000} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("R=%d/%s", r, sh.name), func(t *testing.T) {
				cfg := Config{R: r, Candidates: sh.cands}
				gotO, wantO := oracle.NewCounter(sh.o), oracle.NewCounter(sh.o)
				gotR, wantR := rand.New(rand.NewSource(int64(r))), rand.New(rand.NewSource(int64(r)))
				got := PatternSampling(gotO, sh.out, sh.cube, cfg, gotR)
				want := referenceSampling(wantO, sh.out, sh.cube, cfg, wantR)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sweep %+v\nreference %+v", got, want)
				}
				if g, w := gotR.Uint64(), wantR.Uint64(); g != w {
					t.Fatalf("next RNG draw %#x, reference %#x", g, w)
				}
				if g, w := gotO.Queries(), wantO.Queries(); g != w {
					t.Fatalf("%d queries, reference %d", g, w)
				}
			})
		}
	}
}

// callSizes records the pattern count of every batch call it forwards.
type callSizes struct {
	oracle.Oracle
	sizes []int
}

func (c *callSizes) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	c.sizes = append(c.sizes, n)
	return oracle.EvalBatch(c.Oracle, patterns, n)
}

// TestPatternSamplingBatchesSweep pins the call shape: each call carries
// whole sub-batches of R patterns, at most sweepChunk of them unless R
// alone is larger, and the calls cover the sweep's 2*R*|Free| patterns in
// as few calls as that allows.
func TestPatternSamplingBatchesSweep(t *testing.T) {
	o := caseOracle(t, "case_10")
	for _, r := range []int{60, 768, 7200, 9000, sweepChunk + 5} {
		rec := &callSizes{Oracle: o}
		res := PatternSampling(rec, 0, nil, Config{R: r}, rand.New(rand.NewSource(1)))
		per := max(1, sweepChunk/r)
		units := 2 * len(res.Free)
		if want := (units + per - 1) / per; len(rec.sizes) != want {
			t.Fatalf("R=%d: %d calls, want %d", r, len(rec.sizes), want)
		}
		total := 0
		for _, n := range rec.sizes {
			if n%r != 0 || n > max(sweepChunk, r) {
				t.Fatalf("R=%d: call of %d patterns", r, n)
			}
			total += n
		}
		if total != res.Samples {
			t.Fatalf("R=%d: calls carried %d patterns, result reports %d samples", r, total, res.Samples)
		}
	}
}

type samplerFunc func(oracle.Oracle, int, sop.Cube, Config, RNG) Result

// miniLearn grows a small breadth-first tree the way fbdt.Build does: one
// support sweep, then cube-constrained sweeps over the support, splitting on
// the most significant input.
func miniLearn(o oracle.Oracle, sample samplerFunc) {
	rng := rand.New(rand.NewSource(42))
	sup := sample(o, 0, nil, Config{R: 96}, rng).Support()
	queue := []sop.Cube{nil}
	for expanded := 0; len(queue) > 0 && expanded < 12; {
		cube := queue[0]
		queue = queue[1:]
		s := sample(o, 0, cube, Config{R: 60, Candidates: sup}, rng)
		mi, _, ok := s.MostSignificant()
		if !ok || s.TruthRatio == 0 || s.TruthRatio == 1 {
			continue
		}
		expanded++
		queue = append(queue, cube.With(sop.Literal{Var: mi, Neg: true}), cube.With(sop.Literal{Var: mi, Neg: false}))
	}
}

// TestSmallLearnTranscriptMatchesReference records a small learn's
// black-box transcript through the batched sweep and through the reference
// loop. The two must be byte-identical, so a transcript recorded before the
// sweep was batched still replays.
func TestSmallLearnTranscriptMatchesReference(t *testing.T) {
	o := caseOracle(t, "case_10")
	record := func(sample samplerFunc) []byte {
		var buf bytes.Buffer
		rec, err := oracle.NewRecorder(o, &buf)
		if err != nil {
			t.Fatal(err)
		}
		miniLearn(rec, sample)
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got, want := record(PatternSampling), record(referenceSampling)
	if len(want) < 10000 {
		t.Fatalf("reference transcript only %d bytes: the learn did not run", len(want))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("transcripts differ: sweep %d bytes, reference %d bytes", len(got), len(want))
	}
}

// TestTreeSweepAllocs holds a tree node's sweep to its three objects: the
// Result's D and Free, and the oracle's result lane. It runs at the tree's
// R of 60, with a cube and candidates, so the sweep is one oracle call; the
// lane and draw buffers come from the pool, and the inputs are marked in D.
func TestTreeSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race the pool drops buffers at random")
	}
	wo, out, cube, cands := wideBox(t)
	o := oracle.NewCounter(wo)
	src := NewSource(1)
	cfg := Config{R: 60, Candidates: cands}
	rec := &callSizes{Oracle: wo}
	PatternSampling(rec, out, cube, cfg, src)
	if len(rec.sizes) != 1 {
		t.Fatalf("the sweep took %d oracle calls, want 1", len(rec.sizes))
	}
	if got := testing.AllocsPerRun(100, func() { PatternSampling(o, out, cube, cfg, src) }); got > 3 {
		t.Fatalf("a tree-shaped sweep allocates %v objects, want at most 3", got)
	}
}
