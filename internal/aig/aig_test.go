package aig

import (
	"math/rand"
	"testing"
	"testing/quick"

	"logicregression/internal/circuit"
	"logicregression/internal/sat"
)

func TestLitBasics(t *testing.T) {
	l := MkLit(5, true)
	if l.Node() != 5 || !l.Compl() {
		t.Fatalf("lit = %v", l)
	}
	if l.Not().Compl() || l.Not().Node() != 5 {
		t.Fatal("Not wrong")
	}
	if True.Node() != 0 || !True.Compl() || False.Compl() {
		t.Fatal("constants wrong")
	}
}

func TestAndFolding(t *testing.T) {
	g := New([]string{"a", "b"})
	a, b := g.PI(0), g.PI(1)
	if g.And(False, a) != False {
		t.Fatal("0 AND a != 0")
	}
	if g.And(True, a) != a {
		t.Fatal("1 AND a != a")
	}
	if g.And(a, a) != a {
		t.Fatal("a AND a != a")
	}
	if g.And(a, a.Not()) != False {
		t.Fatal("a AND ~a != 0")
	}
	ab1 := g.And(a, b)
	ab2 := g.And(b, a)
	if ab1 != ab2 {
		t.Fatal("strash failed on commuted operands")
	}
	if g.NumNodes() != 4 { // const + 2 PIs + 1 AND
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
}

func TestDerivedGates(t *testing.T) {
	g := New([]string{"a", "b"})
	a, b := g.PI(0), g.PI(1)
	g.AddPO("or", g.Or(a, b))
	g.AddPO("xor", g.Xor(a, b))
	for m := 0; m < 4; m++ {
		in := []uint64{0, 0}
		for i := 0; i < 2; i++ {
			if m>>uint(i)&1 == 1 {
				in[i] = ^uint64(0)
			}
		}
		out := g.EvalPOs(in)
		av, bv := m&1 == 1, m>>1&1 == 1
		want := []bool{av || bv, av != bv}
		for j, w := range want {
			got := out[j]&1 == 1
			if got != w {
				t.Fatalf("m=%d output %d = %v, want %v", m, j, got, w)
			}
		}
	}
}

func TestFromToCircuitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		c := randomCircuit(rng, 5, 40, 3)
		g := FromCircuit(c)
		back := g.ToCircuit()
		if back.NumPI() != c.NumPI() || back.NumPO() != c.NumPO() {
			t.Fatalf("arity changed: %d/%d", back.NumPI(), back.NumPO())
		}
		for k := 0; k < 100; k++ {
			a := make([]bool, c.NumPI())
			for i := range a {
				a[i] = rng.Intn(2) == 1
			}
			w1 := c.Eval(a)
			w2 := back.Eval(a)
			for j := range w1 {
				if w1[j] != w2[j] {
					t.Fatalf("trial %d: round trip differs at output %d", trial, j)
				}
			}
		}
		// XOR/XNOR gates decompose into 3 ANDs, so the AND count can
		// exceed the 2-input gate count — but never by more than 3x.
		if back.Size() > 3*c.Size()+1 {
			t.Fatalf("trial %d: size exploded %d -> %d", trial, c.Size(), back.Size())
		}
	}
}

// TestAddCircuitSharesOneAIG: strashing a circuit into an AIG that already
// holds it adds no node and returns the same output edges, the property an
// equivalence miter over one AIG relies on.
func TestAddCircuitSharesOneAIG(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(rng, 5, 40, 3)
		g := FromCircuit(c)
		n := g.NumNodes()
		again := g.AddCircuit(c)
		if g.NumNodes() != n {
			t.Fatalf("trial %d: second AddCircuit grew the AIG %d -> %d nodes", trial, n, g.NumNodes())
		}
		for i, l := range again {
			if l != g.PO(i) {
				t.Fatalf("trial %d: output %d edge %v, want %v", trial, i, l, g.PO(i))
			}
		}
	}
}

func randomCircuit(rng *rand.Rand, nPI, nGates, nPO int) *circuit.Circuit {
	c := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < nPI; i++ {
		sigs = append(sigs, c.AddPI("x"+string(rune('a'+i))))
	}
	for g := 0; g < nGates; g++ {
		a := sigs[rng.Intn(len(sigs))]
		b := sigs[rng.Intn(len(sigs))]
		var s circuit.Signal
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
		c.AddPO("y"+string(rune('0'+o)), sigs[len(sigs)-1-o])
	}
	return c
}

func TestSimWordsMatchesCircuitEval(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := randomCircuit(rng, 6, 50, 4)
	g := FromCircuit(c)
	in := make([]uint64, 6)
	for i := range in {
		in[i] = rng.Uint64()
	}
	outW := g.EvalPOs(in)
	for k := 0; k < 64; k++ {
		a := make([]bool, 6)
		for i := range a {
			a[i] = in[i]>>uint(k)&1 == 1
		}
		want := c.Eval(a)
		for j := range want {
			if want[j] != (outW[j]>>uint(k)&1 == 1) {
				t.Fatalf("pattern %d output %d mismatch", k, j)
			}
		}
	}
}

func TestNumAndsCountsReachableOnly(t *testing.T) {
	g := New([]string{"a", "b"})
	a, b := g.PI(0), g.PI(1)
	used := g.And(a, b)
	g.And(a, b.Not()) // dangling
	g.AddPO("z", used)
	if got := g.NumAnds(); got != 1 {
		t.Fatalf("NumAnds = %d, want 1", got)
	}
}

func TestRebuildPureRestrash(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomCircuit(rng, 5, 30, 2)
	g := FromCircuit(c)
	r := g.Rebuild(nil)
	if r.NumAnds() > g.NumAnds() {
		t.Fatalf("rebuild grew: %d -> %d", g.NumAnds(), r.NumAnds())
	}
	in := make([]uint64, 5)
	for i := range in {
		in[i] = rng.Uint64()
	}
	w1 := g.EvalPOs(in)
	w2 := r.EvalPOs(in)
	for j := range w1 {
		if w1[j] != w2[j] {
			t.Fatalf("rebuild changed function at output %d", j)
		}
	}
}

func TestRebuildWithSubstitution(t *testing.T) {
	// Build z = (a AND b) OR (a AND b) variants and substitute one node by
	// constant: z = a AND b; substitute that node with True -> z = true.
	g := New([]string{"a", "b"})
	ab := g.And(g.PI(0), g.PI(1))
	g.AddPO("z", ab)
	subst := g.NewSubstMap()
	subst[ab.Node()] = True
	r := g.Rebuild(subst)
	out := r.EvalPOs([]uint64{0, 0})
	if out[0] != ^uint64(0) {
		t.Fatalf("substituted output = %x, want all ones", out[0])
	}
	if r.NumAnds() != 0 {
		t.Fatalf("NumAnds = %d, want 0", r.NumAnds())
	}
}

func TestCNFProveEqual(t *testing.T) {
	// Two structurally different but equivalent forms: a XOR b built twice
	// with operands swapped; and a genuinely different function.
	g := New([]string{"a", "b"})
	a, b := g.PI(0), g.PI(1)
	x1 := g.Xor(a, b)
	// Build XOR via the mux identity: mux(a, ~b, b), written out in ANDs.
	x2 := g.And(g.And(a, b.Not()).Not(), g.And(a.Not(), b).Not()).Not()
	diff := g.And(a, b)
	g.AddPO("x1", x1)

	s := sat.New()
	cnf := ToCNF(s, g)
	if st := cnf.ProveEqual(x1, x2, 0); st != sat.Unsat {
		t.Fatalf("equivalent edges: ProveEqual = %v, want Unsat", st)
	}
	if st := cnf.ProveEqual(x1, diff, 0); st != sat.Sat {
		t.Fatalf("different edges: ProveEqual = %v, want Sat", st)
	}
	// Counterexample must actually distinguish them.
	av := cnf.Model(a)
	bv := cnf.Model(b)
	if (av != bv) == (av && bv) {
		t.Fatalf("model (%v,%v) does not distinguish XOR from AND", av, bv)
	}
	// Constant edges.
	if st := cnf.ProveEqual(g.And(a, a.Not()), False, 0); st != sat.Unsat {
		t.Fatalf("a AND ~a vs False = %v, want Unsat", st)
	}
}

func TestCNFProveEqualConstTrue(t *testing.T) {
	g := New([]string{"a"})
	a := g.PI(0)
	taut := g.Or(a, a.Not())
	g.AddPO("z", taut)
	s := sat.New()
	cnf := ToCNF(s, g)
	if st := cnf.ProveEqual(taut, True, 0); st != sat.Unsat {
		t.Fatalf("tautology vs True = %v", st)
	}
}

// Property: random circuit -> AIG preserves the function on random patterns.
func TestQuickFromCircuitEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 4+rng.Intn(4), 10+rng.Intn(30), 2)
		g := FromCircuit(c)
		in := make([]uint64, c.NumPI())
		for i := range in {
			in[i] = rng.Uint64()
		}
		outG := g.EvalPOs(in)
		outC := c.EvalWords(in)
		for j := range outC {
			if outC[j] != outG[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
