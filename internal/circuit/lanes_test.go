package circuit_test

import (
	"math/rand"
	"slices"
	"testing"

	"logicregression/internal/cases"
	"logicregression/internal/circuit"
)

// TestEvalLanesMatchesEvalOnCases pins the k-word kernel's lane entry point
// to the scalar reference on every benchmark circuit. The widths cover one
// word, a partial kernel pass, exactly one full pass (16 words), one past
// it, and several passes with a short tail; one Evaluator serves all widths
// so scratch reuse across shapes is exercised too. Every word of every lane
// is random, tail included: the kernel has no notion of live patterns.
func TestEvalLanesMatchesEvalOnCases(t *testing.T) {
	for _, cs := range cases.All() {
		t.Run(cs.Name, func(t *testing.T) {
			c := cs.Circuit
			nIn, nOut := c.NumPI(), c.NumPO()
			rng := rand.New(rand.NewSource(int64(len(cs.Name))))
			ev := c.NewEvaluator()
			assign := make([]bool, nIn)
			for _, w := range []int{1, 2, 15, 16, 17, 40} {
				lanes := make([]uint64, nIn*w)
				for i := range lanes {
					lanes[i] = rng.Uint64()
				}
				out := make([]uint64, nOut*w)
				ev.EvalLanes(lanes, w, out)
				for _, k := range checkedPatterns(rng, w) {
					for i := range assign {
						assign[i] = lanes[i*w+k/64]>>(k%64)&1 == 1
					}
					want := c.Eval(assign)
					for j, bit := range want {
						if got := out[j*w+k/64]>>(k%64)&1 == 1; got != bit {
							t.Fatalf("w=%d pattern %d output %d: lanes %v, Eval %v", w, k, j, got, bit)
						}
					}
				}
			}
		})
	}
}

// checkedPatterns returns the pattern indices compared against Eval: every
// pattern of the first and last word of each 16-word kernel pass, plus a
// random sample of the rest, which keeps the scalar reference affordable on
// the 9000-node cases.
func checkedPatterns(rng *rand.Rand, w int) []int {
	var ks []int
	for b := 0; b < w; b++ {
		if b%16 == 0 || b%16 == 15 || b == w-1 {
			for bit := 0; bit < 64; bit++ {
				ks = append(ks, b*64+bit)
			}
			continue
		}
		for s := 0; s < 4; s++ {
			ks = append(ks, b*64+rng.Intn(64))
		}
	}
	return ks
}

// TestCopyConeMatchesSource copies each output's cone of a few benchmark
// circuits into a fresh circuit that declares every PI, and checks the copy
// against that output of the source on random batches. The copy holds no
// more nodes than the source. A pi-signal list of the wrong length panics.
func TestCopyConeMatchesSource(t *testing.T) {
	const w = 3
	for _, name := range []string{"case_2", "case_5", "case_14"} {
		cs, err := cases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		src := cs.Circuit
		nIn, nOut := src.NumPI(), src.NumPO()
		rng := rand.New(rand.NewSource(int64(len(name))))
		lanes := make([]uint64, nIn*w)
		for i := range lanes {
			lanes[i] = rng.Uint64()
		}
		want := make([]uint64, nOut*w)
		src.NewEvaluator().EvalLanes(lanes, w, want)
		for po := 0; po < nOut; po++ {
			dst := circuit.New()
			pis := make([]circuit.Signal, nIn)
			for i, n := range src.PINames() {
				pis[i] = dst.AddPI(n)
			}
			dst.AddPO("z", circuit.CopyCone(dst, pis, src, po))
			if dst.NumNodes() > src.NumNodes() {
				t.Fatalf("%s output %d: cone copy has %d nodes, source %d", name, po, dst.NumNodes(), src.NumNodes())
			}
			got := make([]uint64, w)
			dst.NewEvaluator().EvalLanes(lanes, w, got)
			if !slices.Equal(got, want[po*w:(po+1)*w]) {
				t.Fatalf("%s output %d: cone copy differs from the source", name, po)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: CopyCone accepted %d pi signals for %d PIs", name, nIn-1, nIn)
				}
			}()
			dst := circuit.New()
			pis := make([]circuit.Signal, nIn-1)
			for i := range pis {
				pis[i] = dst.AddPI("x")
			}
			circuit.CopyCone(dst, pis, src, 0)
		}()
	}
}

// TestEvalLanesToleratesGrowth checks that one Evaluator keeps agreeing with
// the one-word entry point on a circuit that grows between its calls.
func TestEvalLanesToleratesGrowth(t *testing.T) {
	c := circuit.New()
	a, b := c.AddPI("a"), c.AddPI("b")
	c.AddPO("x", c.Xor(a, b))
	ev := c.NewEvaluator()
	in := []uint64{0xF0F0, 0xFF00}
	out := make([]uint64, 1)
	ev.EvalLanes(in, 1, out)
	if out[0] != 0x0FF0 {
		t.Fatalf("xor = %#x, want 0xff0", out[0])
	}
	c.AddPO("y", c.Nand(a, c.NotGate(b)))
	out = make([]uint64, 2)
	ev.EvalLanes(in, 1, out)
	want := c.EvalWords(in)
	if out[0] != want[0] || out[1] != want[1] {
		t.Fatalf("after growth: EvalLanes %#x, EvalWords %#x", out, want)
	}
}
