package bdd

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"logicregression/internal/aig"
	"logicregression/internal/circuit"
)

func TestConstantsAndVar(t *testing.T) {
	m := NewManager(3, 0)
	if m.Eval(False, []bool{true, true, true}) {
		t.Fatal("False evaluated true")
	}
	if !m.Eval(True, []bool{false, false, false}) {
		t.Fatal("True evaluated false")
	}
	x1 := m.Var(1)
	if !m.Eval(x1, []bool{false, true, false}) || m.Eval(x1, []bool{true, false, true}) {
		t.Fatal("Var(1) wrong")
	}
}

func TestVarOutOfRangePanics(t *testing.T) {
	m := NewManager(2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Var(2)
}

func TestCanonicityHashConsing(t *testing.T) {
	m := NewManager(3, 0)
	a, b := m.Var(0), m.Var(1)
	f1 := m.And(a, b)
	f2 := m.And(b, a)
	if f1 != f2 {
		t.Fatal("AND not canonical")
	}
	g1 := m.Or(m.And(a, b), m.And(a, m.Not(b)))
	if g1 != a {
		t.Fatal("ab + ab' did not reduce to a")
	}
}

func TestOpsAgainstTruthTables(t *testing.T) {
	m := NewManager(2, 0)
	a, b := m.Var(0), m.Var(1)
	funcs := map[string]struct {
		f    Ref
		eval func(x, y bool) bool
	}{
		"and": {m.And(a, b), func(x, y bool) bool { return x && y }},
		"or":  {m.Or(a, b), func(x, y bool) bool { return x || y }},
		"xor": {m.Xor(a, b), func(x, y bool) bool { return x != y }},
		"not": {m.Not(a), func(x, y bool) bool { return !x }},
		"ite": {m.ITE(a, b, m.Not(b)), func(x, y bool) bool {
			if x {
				return y
			}
			return !y
		}},
	}
	for name, tc := range funcs {
		for p := 0; p < 4; p++ {
			x, y := p&1 == 1, p>>1&1 == 1
			if m.Eval(tc.f, []bool{x, y}) != tc.eval(x, y) {
				t.Errorf("%s wrong at (%v,%v)", name, x, y)
			}
		}
	}
}

func randomAIG(rng *rand.Rand, nPI, nGates int) *aig.AIG {
	c := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < nPI; i++ {
		sigs = append(sigs, c.AddPI("x"+string(rune('a'+i))))
	}
	for k := 0; k < nGates; k++ {
		a := sigs[rng.Intn(len(sigs))]
		b := sigs[rng.Intn(len(sigs))]
		switch rng.Intn(4) {
		case 0:
			sigs = append(sigs, c.And(a, b))
		case 1:
			sigs = append(sigs, c.Or(a, b))
		case 2:
			sigs = append(sigs, c.Xor(a, b))
		default:
			sigs = append(sigs, c.NotGate(a))
		}
	}
	c.AddPO("z", sigs[len(sigs)-1])
	return aig.FromCircuit(c)
}

func TestFromAIGOutputMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		g := randomAIG(rng, 6, 25)
		m, root, err := FromAIGOutput(g, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 64; p++ {
			in := make([]uint64, 6)
			a := make([]bool, 6)
			for i := range in {
				if rng.Intn(2) == 1 {
					in[i] = ^uint64(0)
					a[i] = true
				}
			}
			want := g.EvalPOs(in)[0]&1 == 1
			if m.Eval(root, a) != want {
				t.Fatalf("trial %d: BDD differs from AIG", trial)
			}
		}
	}
}

func TestFromAIGOutputBudget(t *testing.T) {
	// A wide XOR chain has a linear BDD but the budget of 4 nodes is
	// still too small.
	rng := rand.New(rand.NewSource(2))
	g := randomAIG(rng, 8, 60)
	if _, _, err := FromAIGOutput(g, 0, 4); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestISOPCoverMatchesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		nVars := 3 + rng.Intn(4)
		m := NewManager(nVars, 0)
		// Random function built from random minterm set.
		f := False
		truth := make([]bool, 1<<uint(nVars))
		for minterm := range truth {
			if rng.Intn(2) == 0 {
				continue
			}
			truth[minterm] = true
			cube := True
			for v := 0; v < nVars; v++ {
				x := m.Var(v)
				if minterm>>uint(v)&1 == 0 {
					x = m.Not(x)
				}
				cube = m.And(cube, x)
			}
			f = m.Or(f, cube)
		}
		cover := m.ISOP(f)
		for minterm := range truth {
			a := make([]bool, nVars)
			for v := 0; v < nVars; v++ {
				a[v] = minterm>>uint(v)&1 == 1
			}
			if cover.Eval(a) != truth[minterm] {
				t.Fatalf("trial %d: ISOP differs at minterm %b\ncover: %v", trial, minterm, cover)
			}
		}
		// Irredundancy: no cube may be contained in another.
		for i := range cover {
			for j := range cover {
				if i != j && cover[i].Contains(cover[j]) {
					t.Fatalf("trial %d: cube %v contains %v", trial, cover[i], cover[j])
				}
			}
		}
	}
}

func TestISOPConstants(t *testing.T) {
	m := NewManager(2, 0)
	if c := m.ISOP(False); len(c) != 0 {
		t.Fatalf("ISOP(0) = %v", c)
	}
	c := m.ISOP(True)
	if len(c) != 1 || len(c[0]) != 0 {
		t.Fatalf("ISOP(1) = %v", c)
	}
}

func TestISOPSingleCubeForAnd(t *testing.T) {
	m := NewManager(3, 0)
	f := m.And(m.Var(0), m.And(m.Var(1), m.Var(2)))
	c := m.ISOP(f)
	if len(c) != 1 || len(c[0]) != 3 {
		t.Fatalf("ISOP(abc) = %v", c)
	}
}

// Property: ISOP of a random BDD equals the BDD on random points.
func TestQuickISOPEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAIG(rng, 5, 15)
		m, root, err := FromAIGOutput(g, 0, 0)
		if err != nil {
			return false
		}
		cover := m.ISOP(root)
		for p := 0; p < 32; p++ {
			a := make([]bool, 5)
			for i := range a {
				a[i] = rng.Intn(2) == 1
			}
			if cover.Eval(a) != m.Eval(root, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
