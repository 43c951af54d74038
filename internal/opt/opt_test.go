package opt

import (
	"math/rand"
	"slices"
	"testing"

	"logicregression/internal/aig"
	"logicregression/internal/cases"
	"logicregression/internal/circuit"
	"logicregression/internal/sat"
)

func randomCircuit(rng *rand.Rand, nPI, nGates, nPO int) *circuit.Circuit {
	c := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < nPI; i++ {
		sigs = append(sigs, c.AddPI("x"+string(rune('a'+i))))
	}
	for g := 0; g < nGates; g++ {
		a := sigs[rng.Intn(len(sigs))]
		b := sigs[rng.Intn(len(sigs))]
		switch rng.Intn(7) {
		case 0:
			sigs = append(sigs, c.And(a, b))
		case 1:
			sigs = append(sigs, c.Or(a, b))
		case 2:
			sigs = append(sigs, c.Xor(a, b))
		case 3:
			sigs = append(sigs, c.Nand(a, b))
		case 4:
			sigs = append(sigs, c.Nor(a, b))
		case 5:
			sigs = append(sigs, c.Xnor(a, b))
		default:
			sigs = append(sigs, c.NotGate(a))
		}
	}
	for o := 0; o < nPO; o++ {
		c.AddPO("y"+string(rune('0'+o)), sigs[len(sigs)-1-o])
	}
	return c
}

func simEqual(t *testing.T, c1, c2 *circuit.Circuit, rng *rand.Rand, trials int) {
	t.Helper()
	for k := 0; k < trials; k++ {
		a := make([]bool, c1.NumPI())
		for i := range a {
			a[i] = rng.Intn(2) == 1
		}
		w1 := c1.Eval(a)
		w2 := c2.Eval(a)
		for j := range w1 {
			if w1[j] != w2[j] {
				t.Fatalf("circuits differ at output %d", j)
			}
		}
	}
}

func TestProveEquivalentPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := randomCircuit(rng, 5, 30, 2)
	s := aig.FromCircuit(c).ToCircuit()
	eq, done := ProveEquivalent(c, s, 0)
	if !done || !eq {
		t.Fatalf("strash broke equivalence: eq=%v done=%v", eq, done)
	}
}

func TestProveEquivalentNegative(t *testing.T) {
	c1 := circuit.New()
	a := c1.AddPI("a")
	b := c1.AddPI("b")
	c1.AddPO("z", c1.And(a, b))
	c2 := circuit.New()
	a2 := c2.AddPI("a")
	b2 := c2.AddPI("b")
	c2.AddPO("z", c2.Or(a2, b2))
	eq, done := ProveEquivalent(c1, c2, 0)
	if !done || eq {
		t.Fatalf("AND proved equal to OR: eq=%v done=%v", eq, done)
	}
}

func TestProveEquivalentArityMismatch(t *testing.T) {
	c1 := circuit.New()
	c1.AddPO("z", c1.AddPI("a"))
	c2 := circuit.New()
	x := c2.AddPI("a")
	c2.AddPI("b")
	c2.AddPO("z", x)
	if eq, _ := ProveEquivalent(c1, c2, 0); eq {
		t.Fatal("arity mismatch reported equivalent")
	}
}

func TestStrashMergesDuplicates(t *testing.T) {
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	g1 := c.And(a, b)
	g2 := c.And(a, b) // duplicate
	c.AddPO("z", c.Or(g1, g2))
	s := aig.FromCircuit(c).ToCircuit()
	// or(x,x) = x, so the whole thing should reduce to a single AND.
	if s.Size() != 1 {
		t.Fatalf("strash size = %d, want 1", s.Size())
	}
	simEqual(t, c, s, rand.New(rand.NewSource(2)), 20)
}

func TestRewriteRules(t *testing.T) {
	// Build (a AND b) AND a: absorption should leave one AND.
	g := aig.New([]string{"a", "b"})
	a, b := g.PI(0), g.PI(1)
	ab := g.And(a, b)
	g.AddPO("z", g.And(ab, a))
	r := Rewrite(g)
	if r.NumAnds() != 1 {
		t.Fatalf("absorption: NumAnds = %d, want 1", r.NumAnds())
	}

	// ~(ab)·a must become a·~b.
	g2 := aig.New([]string{"a", "b"})
	a2, b2 := g2.PI(0), g2.PI(1)
	g2.AddPO("z", g2.And(g2.And(a2, b2).Not(), a2))
	r2 := Rewrite(g2)
	c2 := r2.ToCircuit()
	want := func(av, bv bool) bool { return av && !bv }
	for p := 0; p < 4; p++ {
		av, bv := p&1 == 1, p>>1&1 == 1
		if c2.Eval([]bool{av, bv})[0] != want(av, bv) {
			t.Fatalf("substitution rule broke function at (%v,%v)", av, bv)
		}
	}

	// (ab)·(a~b) = 0.
	g3 := aig.New([]string{"a", "b"})
	a3, b3 := g3.PI(0), g3.PI(1)
	g3.AddPO("z", g3.And(g3.And(a3, b3), g3.And(a3, b3.Not())))
	r3 := Rewrite(g3)
	if r3.NumAnds() != 0 {
		t.Fatalf("contradiction: NumAnds = %d, want 0", r3.NumAnds())
	}

	// ~(ab)·~(a~b) = ~a.
	g4 := aig.New([]string{"a", "b"})
	a4, b4 := g4.PI(0), g4.PI(1)
	g4.AddPO("z", g4.And(g4.And(a4, b4).Not(), g4.And(a4, b4.Not()).Not()))
	r4 := Rewrite(g4)
	if r4.NumAnds() != 0 {
		t.Fatalf("resolution: NumAnds = %d, want 0", r4.NumAnds())
	}
	c4 := r4.ToCircuit()
	for p := 0; p < 4; p++ {
		av, bv := p&1 == 1, p>>1&1 == 1
		if c4.Eval([]bool{av, bv})[0] != !av {
			t.Fatalf("resolution rule broke function at (%v,%v)", av, bv)
		}
	}
}

func TestRewritePreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		c := randomCircuit(rng, 6, 50, 3)
		g := aig.FromCircuit(c)
		r := Rewrite(g)
		rc := r.ToCircuit()
		simEqual(t, c, rc, rng, 50)
		if eq, done := ProveEquivalent(c, rc, 5000); done && !eq {
			t.Fatalf("trial %d: rewrite changed function", trial)
		}
	}
}

func TestFraigMergesEquivalentNodes(t *testing.T) {
	// Two structurally different XOR constructions share no AIG nodes but
	// are functionally identical: FRAIG must merge them.
	g := aig.New([]string{"a", "b"})
	a, b := g.PI(0), g.PI(1)
	x1 := g.Xor(a, b) // ~(~(a~b) ~(~ab))
	// (a OR b) AND ~(a AND b): different structure, same function.
	x2 := g.And(g.Or(a, b), g.And(a, b).Not())
	g.AddPO("z1", x1)
	g.AddPO("z2", x2)
	before := g.NumAnds()
	f := Fraig(g, Config{Seed: 1})
	after := f.NumAnds()
	if after >= before {
		t.Fatalf("fraig did not shrink: %d -> %d", before, after)
	}
	// Outputs must remain individually equal.
	cf := f.ToCircuit()
	cg := g.ToCircuit()
	simEqual(t, cg, cf, rand.New(rand.NewSource(4)), 50)
	if cf.Eval([]bool{true, false})[0] != cf.Eval([]bool{true, false})[1] {
		t.Fatal("merged outputs disagree")
	}
}

func TestFraigDetectsConstantNodes(t *testing.T) {
	// z = (a AND b) AND (a AND ~b) is constant 0 but built through
	// different nodes... strash already folds that; use a subtler one:
	// z = (a OR b) AND (~a) AND (~b) == 0.
	g := aig.New([]string{"a", "b"})
	a, b := g.PI(0), g.PI(1)
	z := g.And(g.Or(a, b), g.And(a.Not(), b.Not()))
	g.AddPO("z", z)
	f := Fraig(g, Config{Seed: 2})
	if f.NumAnds() != 0 {
		t.Fatalf("constant-0 cone not collapsed: %d ANDs", f.NumAnds())
	}
	out := f.EvalPOs([]uint64{^uint64(0), 0})
	if out[0] != 0 {
		t.Fatal("fraig changed the constant value")
	}
}

func TestFraigPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuit(rng, 6, 60, 3)
		g := aig.FromCircuit(c)
		f := Fraig(g, Config{Seed: int64(trial)})
		fc := f.ToCircuit()
		simEqual(t, c, fc, rng, 50)
		if eq, done := ProveEquivalent(c, fc, 20000); done && !eq {
			t.Fatalf("trial %d: fraig changed function", trial)
		}
		if f.NumAnds() > g.NumAnds() {
			t.Fatalf("trial %d: fraig grew %d -> %d", trial, g.NumAnds(), f.NumAnds())
		}
	}
}

func TestCollapseShrinksRedundantSOP(t *testing.T) {
	// A deliberately redundant construction of f = a: (a AND b) OR (a AND ~b),
	// duplicated a few times.
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	f := c.Or(c.And(a, b), c.And(a, c.NotGate(b)))
	f = c.Or(c.And(f, b), c.And(f, c.NotGate(b)))
	c.AddPO("z", f)
	g := aig.FromCircuit(c)
	col, ok := Collapse(g, Config{})
	if !ok {
		t.Fatal("collapse failed")
	}
	if col.Size() != 0 {
		// f == a: no gates at all.
		t.Fatalf("collapse size = %d, want 0", col.Size())
	}
	simEqual(t, c, col, rand.New(rand.NewSource(6)), 20)
}

func TestCollapseBudgetKeepsOriginalCone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomCircuit(rng, 8, 80, 2)
	g := aig.FromCircuit(c)
	old := bddBudget
	bddBudget = 3 // everything over budget
	defer func() { bddBudget = old }()
	col, _ := Collapse(g, Config{})
	simEqual(t, c, col, rng, 50)
}

func TestOptimizeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(rng, 6, 60, 2)
		o := Optimize(c, Config{Seed: int64(trial)})
		if o.Size() > c.Size() {
			t.Fatalf("trial %d: Optimize grew %d -> %d", trial, c.Size(), o.Size())
		}
		simEqual(t, c, o, rng, 100)
		if eq, done := ProveEquivalent(c, o, 50000); done && !eq {
			t.Fatalf("trial %d: Optimize changed function", trial)
		}
	}
}

func TestOptimizeOnConstantCircuit(t *testing.T) {
	c := circuit.New()
	a := c.AddPI("a")
	c.AddPO("z", c.And(a, c.NotGate(a)))
	o := Optimize(c, Config{Seed: 1})
	if o.Size() != 0 {
		t.Fatalf("constant circuit size = %d", o.Size())
	}
	if o.Eval([]bool{true})[0] || o.Eval([]bool{false})[0] {
		t.Fatal("constant value wrong")
	}
}

func TestDiagnoseProducesValidCounterexample(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		c1 := randomCircuit(rng, 6, 40, 3)
		// Mutate one gate to get a (usually) different circuit.
		c2 := randomCircuit(rng, 6, 40, 3)
		verdict, cex, bad := Diagnose(c1, c2, 0)
		switch verdict {
		case sat.Sat:
			if bad < 0 || bad >= c1.NumPO() {
				t.Fatalf("bad output index %d", bad)
			}
			if len(cex) != c1.NumPI() {
				t.Fatalf("cex width %d", len(cex))
			}
			if c1.Eval(cex)[bad] == c2.Eval(cex)[bad] {
				t.Fatalf("trial %d: counterexample does not distinguish", trial)
			}
		case sat.Unsat:
			// Equivalent by luck: verify by simulation.
			simEqual(t, c1, c2, rng, 100)
		default:
			t.Fatalf("unexpected verdict %v with unlimited budget", verdict)
		}
	}
}

// TestDiagnoseCounterexamples holds Diagnose's Sat path on every built-in
// case. A copy whose last output is XORed with PI 0 differs from the
// original exactly where PI 0 is 1, so Diagnose must name that output and
// return an assignment that splits it. A complemented output would not
// test the model: any assignment splits f from its complement.
func TestDiagnoseCounterexamples(t *testing.T) {
	for _, cs := range cases.All() {
		c := cs.Circuit
		m := xorLastPO(c)
		po := c.NumPO() - 1
		verdict, cex, bad := Diagnose(c, m, 20000)
		if verdict != sat.Sat || bad != po {
			t.Errorf("%s: Diagnose = %v at output %d, want Sat at output %d", cs.Name, verdict, bad, po)
			continue
		}
		if len(cex) != c.NumPI() || c.Eval(cex)[po] == m.Eval(cex)[po] {
			t.Errorf("%s: counterexample %v does not split output %d", cs.Name, cex, po)
		}
	}
}

// xorLastPO copies c with its last output XORed with PI 0, through one
// node appended to the raw node list.
func xorLastPO(c *circuit.Circuit) *circuit.Circuit {
	nodes := make([]circuit.Node, c.NumNodes())
	for id := range nodes {
		nodes[id] = c.Node(id)
	}
	pis := make([]circuit.Signal, c.NumPI())
	for i := range pis {
		pis[i] = c.PISignal(i)
	}
	pos := make([]circuit.Signal, c.NumPO())
	for i := range pos {
		pos[i] = c.POSignal(i)
	}
	last := len(pos) - 1
	nodes = append(nodes, circuit.Node{Type: circuit.Xor, In0: pos[last], In1: pis[0]})
	pos[last] = len(nodes) - 1
	return circuit.FromNodes(nodes, c.PINames(), pis, c.PONames(), pos)
}

// TestFraigClassesRefine pins refine on hand-made classes: a class is cut
// by the new word wherever its equal words sit, parts of one node are
// dropped, the parts of a class follow the byte-reversed word, members keep
// node order, and classes keep theirs.
func TestFraigClassesRefine(t *testing.T) {
	tests := []struct {
		name          string
		members, ends []int
		vals, flip    []uint64 // by node
		wantMembers   []int
		wantEnds      []int
	}{
		{
			name:    "equal words apart",
			members: []int{0, 1, 2}, ends: []int{3},
			vals: []uint64{0, 0xff, 0}, flip: []uint64{0, 0, 0},
			wantMembers: []int{0, 2}, wantEnds: []int{2},
		},
		{
			name:    "flip joins complements, no split",
			members: []int{0, 1, 2}, ends: []int{3},
			vals: []uint64{5, ^uint64(5), 5}, flip: []uint64{0, ^uint64(0), 0},
			wantMembers: []int{0, 1, 2}, wantEnds: []int{3},
		},
		{
			// 0x100 sorts after 2 as a number but before it byte-reversed.
			name:    "parts by byte-reversed word",
			members: []int{0, 1, 2, 3}, ends: []int{4},
			vals: []uint64{2, 0x100, 2, 0x100}, flip: []uint64{0, 0, 0, 0},
			wantMembers: []int{1, 3, 0, 2}, wantEnds: []int{2, 4},
		},
		{
			name:    "single nodes dropped",
			members: []int{3, 4, 5, 0, 1, 2}, ends: []int{3, 6},
			vals: []uint64{1, 2, 1, 7, 9, 8}, flip: []uint64{0, 0, 0, 0, 0, 0},
			wantMembers: []int{0, 2}, wantEnds: []int{2},
		},
		{
			name:    "classes keep their order",
			members: []int{3, 4, 5, 0, 1, 2}, ends: []int{3, 6},
			vals: []uint64{1, 1, 6, 7, 9, 7}, flip: []uint64{0, 0, 0, 0, 0, 0},
			wantMembers: []int{3, 5, 0, 1}, wantEnds: []int{2, 4},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := fraigClasses{members: append([]int(nil), tc.members...), ends: tc.ends}
			c.refine(tc.vals, tc.flip)
			if !slices.Equal(c.members, tc.wantMembers) || !slices.Equal(c.ends, tc.wantEnds) {
				t.Fatalf("refine: members %v ends %v, want %v %v", c.members, c.ends, tc.wantMembers, tc.wantEnds)
			}
		})
	}
}

func TestDiagnoseEquivalentAfterOptimize(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := randomCircuit(rng, 6, 50, 2)
	o := Optimize(c, Config{Seed: 3})
	verdict, _, _ := Diagnose(c, o, 0)
	if verdict != sat.Unsat {
		t.Fatalf("verdict = %v, want Unsat", verdict)
	}
}

func TestRunScriptRejectsUnknownPass(t *testing.T) {
	c := circuit.New()
	c.AddPO("z", c.AddPI("a"))
	if _, err := RunScript(c, "strash; espresso", Config{}); err == nil {
		t.Fatal("unknown pass accepted")
	}
}

func TestRunScriptSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := randomCircuit(rng, 5, 40, 2)
	out, err := RunScript(c, "balance", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	simEqual(t, c, out, rng, 50)
	if out.Stats().Depth > c.Stats().Depth {
		t.Fatal("balance-only script increased depth")
	}
}

func TestRunScriptEmptyAndWhitespace(t *testing.T) {
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	c.AddPO("z", c.And(a, b))
	out, err := RunScript(c, " ; ;; ", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != c.Size() {
		t.Fatal("empty script changed the circuit")
	}
}
