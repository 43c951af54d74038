package circuit

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestBasicGatesTruthTables(t *testing.T) {
	c := New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	c.AddPO("and", c.And(a, b))
	c.AddPO("or", c.Or(a, b))
	c.AddPO("xor", c.Xor(a, b))
	c.AddPO("nand", c.Nand(a, b))
	c.AddPO("nor", c.Nor(a, b))
	c.AddPO("xnor", c.Xnor(a, b))
	c.AddPO("nota", c.NotGate(a))
	c.AddPO("bufa", c.BufGate(a))

	for _, tc := range []struct {
		a, b bool
		want []bool // and or xor nand nor xnor nota bufa
	}{
		{false, false, []bool{false, false, false, true, true, true, true, false}},
		{false, true, []bool{false, true, true, true, false, false, true, false}},
		{true, false, []bool{false, true, true, true, false, false, false, true}},
		{true, true, []bool{true, true, false, false, false, true, false, true}},
	} {
		got := c.Eval([]bool{tc.a, tc.b})
		for i, w := range tc.want {
			if got[i] != w {
				t.Errorf("inputs (%v,%v) output %s = %v, want %v",
					tc.a, tc.b, c.PONames()[i], got[i], w)
			}
		}
	}
}

func TestConstNodesSharedAndCorrect(t *testing.T) {
	c := New()
	c.AddPI("a")
	z0 := c.Const(false)
	z1 := c.Const(true)
	if c.Const(false) != z0 || c.Const(true) != z1 {
		t.Fatal("constants not shared")
	}
	c.AddPO("zero", z0)
	c.AddPO("one", z1)
	out := c.Eval([]bool{true})
	if out[0] != false || out[1] != true {
		t.Fatalf("constants evaluate to %v", out)
	}
	// On a fresh circuit the first constant is node 0.
	for _, b := range []bool{false, true} {
		c := New()
		if s := c.Const(b); c.Const(b) != s || c.NumNodes() != 1 {
			t.Fatalf("Const(%v) twice on a fresh circuit: %d nodes", b, c.NumNodes())
		}
	}
}

func TestEvalWordsMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomCircuit(rng, 8, 30, 4)
	inWords := make([]uint64, c.NumPI())
	for i := range inWords {
		inWords[i] = rng.Uint64()
	}
	outWords := c.EvalWords(inWords)
	for k := 0; k < 64; k++ {
		assign := make([]bool, c.NumPI())
		for i := range assign {
			assign[i] = inWords[i]>>uint(k)&1 == 1
		}
		want := c.Eval(assign)
		for j := range want {
			got := outWords[j]>>uint(k)&1 == 1
			if got != want[j] {
				t.Fatalf("pattern %d output %d: parallel %v, scalar %v", k, j, got, want[j])
			}
		}
	}
}

// randomCircuit builds a random well-formed circuit for differential tests.
func randomCircuit(rng *rand.Rand, nPI, nGates, nPO int) *Circuit {
	c := New()
	sigs := make([]Signal, 0, nPI+nGates)
	for i := 0; i < nPI; i++ {
		sigs = append(sigs, c.AddPI("x"+strconv.Itoa(i)))
	}
	for g := 0; g < nGates; g++ {
		a := sigs[rng.Intn(len(sigs))]
		b := sigs[rng.Intn(len(sigs))]
		var s Signal
		switch rng.Intn(7) {
		case 0:
			s = c.And(a, b)
		case 1:
			s = c.Or(a, b)
		case 2:
			s = c.Xor(a, b)
		case 3:
			s = c.Nand(a, b)
		case 4:
			s = c.Nor(a, b)
		case 5:
			s = c.Xnor(a, b)
		default:
			s = c.NotGate(a)
		}
		sigs = append(sigs, s)
	}
	for o := 0; o < nPO; o++ {
		c.AddPO("y"+strconv.Itoa(o), sigs[len(sigs)-1-o])
	}
	return c
}

func TestSizeCountsOnlyReachableTwoInputGates(t *testing.T) {
	c := New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	g := c.And(a, b)
	c.Or(a, b) // dangling: not counted
	n := c.NotGate(g)
	c.AddPO("z", n)
	if got := c.Size(); got != 1 {
		t.Fatalf("Size = %d, want 1", got)
	}
}

func TestStats(t *testing.T) {
	c := New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	g1 := c.And(a, b)
	g2 := c.Or(g1, a)
	c.AddPO("z", c.NotGate(g2))
	st := c.Stats()
	if st.PIs != 2 || st.POs != 1 || st.Gates != 2 || st.Inverters != 1 || st.Depth != 2 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestStructuralSupport(t *testing.T) {
	c := New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	c.AddPI("c") // unused
	d := c.AddPI("d")
	c.AddPO("z", c.And(a, c.Xor(b, d)))
	sup := c.StructuralSupport(0)
	want := []int{0, 1, 3}
	if len(sup) != len(want) {
		t.Fatalf("support = %v, want %v", sup, want)
	}
	for i := range want {
		if sup[i] != want[i] {
			t.Fatalf("support = %v, want %v", sup, want)
		}
	}
}

func TestEvalPanicsOnWrongArity(t *testing.T) {
	c := New()
	c.AddPI("a")
	c.AddPO("z", c.PISignal(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Eval([]bool{true, false})
}

// TestSimulateRejectsMisSizedScratch calls the kernel with a word count
// outside [1, kernelWords] or a value array that is not k words per node:
// each must panic rather than run.
func TestSimulateRejectsMisSizedScratch(t *testing.T) {
	c := New()
	c.AddPO("z", c.NotGate(c.AddPI("a")))
	n := c.NumNodes()
	for _, tc := range []struct {
		name string
		k    int
		vals int
	}{
		{"zero words", 0, 0},
		{"too many words", kernelWords + 1, n * (kernelWords + 1)},
		{"one spare value word", 1, n + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: simulate ran", tc.name)
				}
			}()
			c.simulate(make([]uint64, kernelWords+1), 1, 0, tc.k, make([]uint64, tc.vals))
		}()
	}
}

// Property: random circuits evaluated in parallel agree with scalar eval.
func TestQuickParallelScalarAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 3+rng.Intn(6), 5+rng.Intn(40), 1+rng.Intn(3))
		words := make([]uint64, c.NumPI())
		for i := range words {
			words[i] = rng.Uint64()
		}
		outW := c.EvalWords(words)
		for _, k := range []int{0, 17, 63} {
			assign := make([]bool, c.NumPI())
			for i := range assign {
				assign[i] = words[i]>>uint(k)&1 == 1
			}
			out := c.Eval(assign)
			for j := range out {
				if out[j] != (outW[j]>>uint(k)&1 == 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
