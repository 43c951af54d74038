package opt

import (
	"math/bits"
	"math/rand"
	"testing"

	"logicregression/internal/aig"
	"logicregression/internal/tt"
)

func TestCutEnumerationBasics(t *testing.T) {
	g := aig.New([]string{"a", "b", "c"})
	ab := g.And(g.PI(0), g.PI(1))
	abc := g.And(ab, g.PI(2))
	g.AddPO("z", abc)
	cuts := enumerateCuts(g)

	// The 3-leaf cut of abc must carry the AND3 truth table.
	found := false
	for _, c := range cuts[abc.Node()] {
		if len(c.leaves) == 3 {
			found = true
			// AND3 over (a,b,c): minterm 7 is 1, replicated over the
			// unused upper variables (bit 7 of every byte).
			want := tt.Table(0x8080808080808080)
			if c.tt != want {
				t.Fatalf("AND3 tt = %v, want %v", c.tt, want)
			}
		}
	}
	if !found {
		t.Fatal("3-leaf cut not enumerated")
	}
}

func TestCutTruthTablesMatchSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 20; trial++ {
		c := randomCircuit(rng, 5, 25, 2)
		g := aig.FromCircuit(c)
		cuts := enumerateCuts(g)
		for n := g.NumPIs() + 1; n < g.NumNodes(); n++ {
			for _, cutc := range cuts[n] {
				if len(cutc.leaves) == 1 && cutc.leaves[0] == n {
					continue // trivial cut
				}
				// Check every minterm of the cut by simulation: force the
				// leaf values and compare node value against the table.
				for m := 0; m < 1<<uint(len(cutc.leaves)); m++ {
					want := cutc.tt>>uint(m)&1 == 1
					got, ok := nodeValueUnderLeaves(g, n, cutc.leaves, m)
					if !ok {
						continue // leaves do not determine the node here
					}
					if got != want {
						t.Fatalf("trial %d node %d cut %v: minterm %b: tt %v, sim %v",
							trial, n, cutc.leaves, m, want, got)
					}
				}
			}
		}
	}
}

// nodeValueUnderLeaves computes node n's value when the cut leaves take the
// given minterm, by trying all PI assignments consistent with the leaves and
// checking the node value is uniform (it must be, for a valid cut).
func nodeValueUnderLeaves(g *aig.AIG, n int, leaves []int, minterm int) (bool, bool) {
	nPI := g.NumPIs()
	first := true
	var val bool
	for m := 0; m < 1<<uint(nPI); m++ {
		in := make([]uint64, nPI)
		for i := 0; i < nPI; i++ {
			if m>>uint(i)&1 == 1 {
				in[i] = ^uint64(0)
			}
		}
		vals := g.SimWords(in)
		ok := true
		for li, leaf := range leaves {
			want := minterm>>uint(li)&1 == 1
			if (vals[leaf]&1 == 1) != want {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		v := vals[n]&1 == 1
		if first {
			val = v
			first = false
		} else if v != val {
			// Leaves do not dominate the node: cut invalid!
			return false, false
		}
	}
	return val, !first
}

func TestRefactorPreservesAndNeverGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuit(rng, 6, 60, 3)
		g := aig.FromCircuit(c)
		r := Refactor(g)
		if r.NumAnds() > g.NumAnds() {
			t.Fatalf("trial %d: refactor grew %d -> %d", trial, g.NumAnds(), r.NumAnds())
		}
		rc := r.ToCircuit()
		simEqual(t, c, rc, rng, 80)
		if eq, done := ProveEquivalent(c, rc, 20000); done && !eq {
			t.Fatalf("trial %d: refactor changed function", trial)
		}
	}
}

func TestRefactorShrinksRedundantMux(t *testing.T) {
	// A clumsy 5-AND construction of XOR: refactor should find the 3-AND
	// form through the cut function.
	g := aig.New([]string{"a", "b"})
	a, b := g.PI(0), g.PI(1)
	// (a OR b) AND NOT(a AND b), with OR built wastefully.
	or1 := g.Or(g.And(a, a), g.And(b, b)) // strash folds the idempotent ANDs
	z := g.And(or1, g.And(a, b).Not())
	g.AddPO("z", z)
	r := Refactor(g)
	if r.NumAnds() > g.NumAnds() {
		t.Fatalf("refactor grew: %d -> %d", g.NumAnds(), r.NumAnds())
	}
	// Function intact.
	for p := 0; p < 4; p++ {
		in := []uint64{0, 0}
		if p&1 == 1 {
			in[0] = 1
		}
		if p>>1&1 == 1 {
			in[1] = 1
		}
		if g.EvalPOs(in)[0]&1 != r.EvalPOs(in)[0]&1 {
			t.Fatalf("function changed at %d", p)
		}
	}
}

func TestMergeImplicantsQuineStep(t *testing.T) {
	// Full onset over 2 vars collapses to the single don't-care implicant.
	imps := mergeImplicants(tt.Table(0xF), 2)
	if len(imps) != 1 || imps[0].care != 0 {
		t.Fatalf("imps = %+v", imps)
	}
	// XOR over 2 vars cannot merge: two minterms stay.
	imps = mergeImplicants(tt.Table(0b0110), 2)
	if len(imps) != 2 {
		t.Fatalf("xor imps = %+v", imps)
	}
	for _, imp := range imps {
		if bits.OnesCount(uint(imp.care)) != 2 {
			t.Fatalf("xor implicant lost literals: %+v", imp)
		}
	}
}

func TestAIGMarkTruncate(t *testing.T) {
	g := aig.New([]string{"a", "b", "c"})
	ab := g.And(g.PI(0), g.PI(1))
	mark := g.Mark()
	g.And(ab, g.PI(2))
	g.And(ab.Not(), g.PI(2))
	if g.NumNodes() != mark+2 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	g.Truncate(mark)
	if g.NumNodes() != mark {
		t.Fatalf("truncate left %d nodes, want %d", g.NumNodes(), mark)
	}
	// The strash entries of the removed nodes must be gone: re-creating
	// the gate allocates a fresh node rather than referencing a ghost.
	again := g.And(ab, g.PI(2))
	if again.Node() != mark {
		t.Fatalf("recreated node id = %d, want %d", again.Node(), mark)
	}
	// And the surviving entry still hits.
	if g.And(g.PI(0), g.PI(1)) != ab {
		t.Fatal("pre-mark strash entry lost")
	}
}
