package template

import (
	"math/rand"
	"testing"

	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
)

// parityGolden builds z = const ⊕ parity(selected inputs) over n inputs.
func parityGolden(n int, sel []int, constant bool) *circuit.Circuit {
	c := circuit.New()
	sigs := make([]circuit.Signal, n)
	for i := range sigs {
		sigs[i] = c.AddPI("in" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
	}
	chosen := make([]circuit.Signal, len(sel))
	for k, i := range sel {
		chosen[k] = sigs[i]
	}
	z := c.XorTree(chosen)
	if constant {
		z = c.NotGate(z)
	}
	c.AddPO("par", z)
	return c
}

// detectAll runs Detect and then DetectAffine on one generator, as
// core.Learn does with Options.ExtendedTemplates set.
func detectAll(o oracle.Oracle, cfg Config, seed int64) Matches {
	rng := rand.New(rand.NewSource(seed))
	m := Detect(o, cfg, rng)
	m.Affine = DetectAffine(o, m, cfg, rng)
	return m
}

func TestDetectAffineWideParity(t *testing.T) {
	// A 40-input parity over 23 of the inputs: hopeless for trees, exact
	// for the affine family.
	sel := []int{0, 1, 3, 5, 7, 8, 11, 13, 15, 16, 19, 21, 22, 25, 27, 28, 30, 31, 33, 35, 36, 38, 39}
	golden := parityGolden(40, sel, true)
	o := oracle.NewCounter(oracle.FromCircuit(golden))
	m := detectAll(o, Config{Samples: 64, Verify: 48}, 1)
	if len(m.Affine) != 1 {
		t.Fatalf("affine matches = %+v", m.Affine)
	}
	am := m.Affine[0]
	if !am.Const {
		t.Fatal("constant term lost")
	}
	if len(am.Inputs) != len(sel) {
		t.Fatalf("parity support = %v, want %v", am.Inputs, sel)
	}
	for k := range sel {
		if am.Inputs[k] != sel[k] {
			t.Fatalf("parity support = %v, want %v", am.Inputs, sel)
		}
	}
	// O(n) query cost: far below anything a tree would spend.
	if o.Queries() > 40_000 {
		t.Fatalf("affine detection used %d queries", o.Queries())
	}

	// Synthesized subcircuit must match on random points.
	cc := circuit.New()
	piSigs := make([]circuit.Signal, golden.NumPI())
	for i, name := range golden.PINames() {
		piSigs[i] = cc.AddPI(name)
	}
	cc.AddPO("par", am.Synthesize(cc, piSigs))
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 2000; k++ {
		a := make([]bool, golden.NumPI())
		for i := range a {
			a[i] = rng.Intn(2) == 1
		}
		if cc.Eval(a)[0] != golden.Eval(a)[0] {
			t.Fatal("synthesized parity differs")
		}
	}
}

func TestDetectAffineRejectsNonAffine(t *testing.T) {
	// z = majority(a,b,c) is not affine.
	c := circuit.New()
	a := c.AddPI("aa")
	b := c.AddPI("bb")
	d := c.AddPI("cc")
	c.AddPO("maj", c.Or(c.Or(c.And(a, b), c.And(a, d)), c.And(b, d)))
	o := oracle.FromCircuit(c)
	m := detectAll(o, Config{Samples: 64, Verify: 48}, 3)
	if len(m.Affine) != 0 {
		t.Fatalf("false affine match: %+v", m.Affine)
	}
}

func TestDetectAffineConstantFunction(t *testing.T) {
	// Constant functions ARE affine (empty parity); the family may claim
	// them, and the claim must be functionally correct.
	c := circuit.New()
	c.AddPI("aa")
	c.AddPO("one", c.Const(true))
	o := oracle.FromCircuit(c)
	m := detectAll(o, Config{Samples: 64, Verify: 24}, 4)
	if len(m.Affine) != 1 {
		t.Fatalf("affine = %+v", m.Affine)
	}
	if !m.Affine[0].Const || len(m.Affine[0].Inputs) != 0 {
		t.Fatalf("constant-1 match wrong: %+v", m.Affine[0])
	}
}

func TestAffinePredict(t *testing.T) {
	am := AffineMatch{Inputs: []int{0, 2}, Const: true}
	cases := []struct {
		in   []bool
		want bool
	}{
		{[]bool{false, false, false}, true},
		{[]bool{true, false, false}, false},
		{[]bool{true, true, false}, false},
		{[]bool{true, false, true}, true},
	}
	for _, tc := range cases {
		if am.Predict(tc.in) != tc.want {
			t.Fatalf("Predict(%v) != %v", tc.in, tc.want)
		}
	}
}
