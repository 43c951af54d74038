package mutation

import (
	"fmt"

	"logicregression/internal/bdd"
	"logicregression/internal/circuit"
)

// The BDD layer decides functional equality by building both circuits into
// one shared manager: ROBDDs are canonical, so per-output equality is
// reference equality. It is the harness's second complete equivalence
// procedure, fully independent of the SAT path (no AIG, no CNF, no solver).
//
// Mutants share almost all structure with the original circuit, so the
// harness keeps one manager per campaign: the original is built once, and a
// mutant's build of the shared cone finds its nodes already in the unique
// table. The ITE cache is lossy, so part of that cone may be recomputed, but
// a recomputation only walks existing nodes and creates none. A node-budget
// overrun resets the manager and retries the mutant in isolation once; if it
// still overruns, that mutant's BDD verdict is a skip, not a pass.

// bddChecker is the per-campaign shared-manager equivalence checker.
type bddChecker struct {
	orig     *circuit.Circuit
	maxNodes int
	m        *bdd.Manager
	origRefs []bdd.Ref
	// dead marks the original itself as over budget: every check skips.
	dead bool
}

// newBDDChecker builds the original's BDDs once. maxNodes bounds the shared
// manager (including all mutant builds until a reset).
func newBDDChecker(orig *circuit.Circuit, maxNodes int) *bddChecker {
	ck := &bddChecker{orig: orig, maxNodes: maxNodes}
	ck.reset()
	return ck
}

func (ck *bddChecker) reset() {
	ck.m = bdd.NewManager(ck.orig.NumPI(), ck.maxNodes)
	refs, err := buildBDD(ck.m, ck.orig)
	if err != nil {
		ck.dead = true
		return
	}
	ck.origRefs = refs
}

// check decides equality of mutant against the original. err is
// bdd.ErrBudget when the build ran out of nodes (layer verdict: skip).
func (ck *bddChecker) check(mutant *circuit.Circuit) (equal bool, badPO int, err error) {
	if ck.dead {
		return false, -1, bdd.ErrBudget
	}
	if mutant.NumPI() != ck.orig.NumPI() || mutant.NumPO() != ck.orig.NumPO() {
		return false, -1, nil
	}
	refs, err := buildBDD(ck.m, mutant)
	if err != nil {
		// The manager may have filled up with junk from earlier mutants;
		// rebuild it fresh and give this mutant one retry.
		ck.reset()
		if ck.dead {
			return false, -1, bdd.ErrBudget
		}
		refs, err = buildBDD(ck.m, mutant)
		if err != nil {
			return false, -1, err
		}
	}
	for po := range refs {
		if refs[po] != ck.origRefs[po] {
			return false, po, nil
		}
	}
	return true, -1, nil
}

// EquivBDD decides functional equality of two circuits with identical PI/PO
// arity through one shared BDD manager bounded to maxNodes nodes. It is the
// one-shot form of the harness's BDD layer; campaigns over many mutants of
// one circuit use the shared-manager path inside Report.RunCircuit instead.
func EquivBDD(a, b *circuit.Circuit, maxNodes int) (equal bool, badPO int, err error) {
	if a.NumPI() != b.NumPI() || a.NumPO() != b.NumPO() {
		return false, -1, nil
	}
	ck := newBDDChecker(a, maxNodes)
	if ck.dead {
		return false, -1, bdd.ErrBudget
	}
	return ck.check(b)
}

// buildBDD constructs the BDD of every PO of c in manager m, mapping PI i to
// variable i. Only nodes in the transitive fanin of some PO are built.
func buildBDD(m *bdd.Manager, c *circuit.Circuit) ([]bdd.Ref, error) {
	refs := make([]bdd.Ref, c.NumNodes())
	need := make([]bool, c.NumNodes())
	var stack []circuit.Signal
	mark := func(s circuit.Signal) {
		if !need[s] {
			need[s] = true
			stack = append(stack, s)
		}
	}
	for i := 0; i < c.NumPO(); i++ {
		mark(c.POSignal(i))
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := c.Node(id)
		switch {
		case nd.Type == circuit.PI || nd.Type == circuit.Const0 || nd.Type == circuit.Const1:
		case nd.Type.TwoInput():
			mark(nd.In0)
			mark(nd.In1)
		default:
			mark(nd.In0)
		}
	}

	piIndex := make(map[circuit.Signal]int, c.NumPI())
	for i := 0; i < c.NumPI(); i++ {
		piIndex[c.PISignal(i)] = i
	}
	err := m.Guard(func() {
		for id := 0; id < c.NumNodes(); id++ {
			if !need[id] {
				continue
			}
			nd := c.Node(id)
			switch nd.Type {
			case circuit.PI:
				refs[id] = m.Var(piIndex[id])
			case circuit.Const0:
				refs[id] = bdd.False
			case circuit.Const1:
				refs[id] = bdd.True
			case circuit.Not:
				refs[id] = m.Not(refs[nd.In0])
			case circuit.Buf:
				refs[id] = refs[nd.In0]
			case circuit.And:
				refs[id] = m.And(refs[nd.In0], refs[nd.In1])
			case circuit.Or:
				refs[id] = m.Or(refs[nd.In0], refs[nd.In1])
			case circuit.Xor:
				refs[id] = m.Xor(refs[nd.In0], refs[nd.In1])
			case circuit.Nand:
				refs[id] = m.Not(m.And(refs[nd.In0], refs[nd.In1]))
			case circuit.Nor:
				refs[id] = m.Not(m.Or(refs[nd.In0], refs[nd.In1]))
			case circuit.Xnor:
				refs[id] = m.Not(m.Xor(refs[nd.In0], refs[nd.In1]))
			default:
				panic(fmt.Sprintf("mutation: unknown gate type %v", nd.Type))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]bdd.Ref, c.NumPO())
	for i := range out {
		out[i] = refs[c.POSignal(i)]
	}
	return out, nil
}
