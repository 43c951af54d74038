// Package opt implements the circuit-optimization step of the paper
// (Sec. IV-E). The paper delegates this step to a script of Berkeley ABC
// passes (strash, rewrite, dc2/resyn scripts, fraig, collapse); this
// package provides the same passes on our own AIG, and RunScript is the one
// driver that runs a script of them:
//
//   - strash: structural hashing (the AIG round trip)
//   - Rewrite: local two-level AND rewriting rules
//   - Refactor: cut-based resynthesis, skipped above refactorBudget ANDs
//   - Fraig: simulation-guided equivalence classes proven by SAT and merged,
//     then rewritten; skipped above maxFraigNodes ANDs
//   - Collapse: per-output BDD collapse with ISOP resynthesis
//   - Balance: depth balancing of the best circuit so far
//
// RunScript keeps the smallest functionally equivalent circuit seen after
// any pass, under a time limit. Optimize, the learn's step 5, runs strash,
// rewrite and fraig through it; cmd/optimize runs DefaultScript, all five
// passes, on any circuit.
package opt

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"logicregression/internal/aig"
	"logicregression/internal/bdd"
	"logicregression/internal/circuit"
	"logicregression/internal/sat"
	"logicregression/internal/sop"
)

// Config controls the pipeline.
type Config struct {
	// Seed drives the FRAIG simulation patterns.
	Seed int64
	// TimeLimit bounds the whole pipeline; zero means none. The paper
	// imposes 60 seconds.
	TimeLimit time.Duration
}

const (
	// maxFraigNodes skips the FRAIG stage on AIGs with more AND nodes than
	// this: SAT-proving every candidate pair on huge learned SOPs is not
	// worth the time.
	maxFraigNodes = 20000
	// refactorBudget skips cut-based refactoring above this AND count
	// (cut enumeration is the costly part).
	refactorBudget = 50000
	// fraigSimWords is the number of 64-pattern words that form FRAIG's
	// first candidate equivalence classes.
	fraigSimWords = 8
	// fraigRounds bounds FRAIG's rounds of proofs; each round but the last
	// refines the classes by one counterexample word.
	fraigRounds = 24
	// fraigMaxConflicts is the solver's conflict budget during FRAIG's
	// proofs. sat.Solver counts conflicts over all its calls, so the budget
	// is shared by every proof of one Fraig call (see
	// sat.Solver.MaxConflicts).
	fraigMaxConflicts = 1000
)

// bddBudget bounds per-output BDD node allocation for Collapse; an output
// over budget keeps its original logic. Tests lower it to force that path.
var bddBudget = 100000

// Optimize post-optimizes a learned circuit: it runs learnScript (strash,
// rewrite, fraig) on c and returns the smallest equivalent circuit found
// (possibly c itself).
func Optimize(c *circuit.Circuit, cfg Config) *circuit.Circuit {
	best, err := RunScript(c, learnScript, cfg)
	if err != nil {
		panic("opt: learnScript: " + err.Error())
	}
	return best
}

// Rewrite rebuilds the AIG while applying local two-level simplification
// rules on every AND construction (the lightweight analogue of ABC's
// rewrite).
func Rewrite(g *aig.AIG) *aig.AIG {
	out := aig.New(g.PINames())
	m := make([]aig.Lit, g.NumNodes())
	m[0] = aig.False
	for i := 0; i < g.NumPIs(); i++ {
		m[i+1] = out.PI(i)
	}
	resolve := func(l aig.Lit) aig.Lit {
		nl := m[l.Node()]
		if l.Compl() {
			nl = nl.Not()
		}
		return nl
	}
	for n := g.NumPIs() + 1; n < g.NumNodes(); n++ {
		f0, f1 := g.Fanins(n)
		m[n] = andRewrite(out, resolve(f0), resolve(f1), 0)
	}
	for i := 0; i < g.NumPOs(); i++ {
		out.AddPO(g.PONames()[i], resolve(g.PO(i)))
	}
	return out
}

// andRewrite builds a AND b with two-level redundancy rules:
//
//	(xy)·x      = xy          (absorption)
//	~(xy)·x     = x·~y        (substitution)
//	(xy)·(x~y)  = 0           (contradiction)
//	~(xy)·~(x~y) = ~x         (resolution)
//	(xy)·(xz)   left intact (sharing handled by strash)
func andRewrite(g *aig.AIG, a, b aig.Lit, depth int) aig.Lit {
	if depth > 4 { // the rules below recurse at most shallowly; be safe
		return g.And(a, b)
	}
	// Normalize: examine decompositions of both operands.
	af := fanins(g, a)
	bf := fanins(g, b)

	// Absorption / substitution against b.
	if af != nil {
		x, y := af[0], af[1]
		if !a.Compl() {
			if b == x || b == y {
				return a // (xy)·x = xy
			}
			if b == x.Not() || b == y.Not() {
				return aig.False // (xy)·~x = 0
			}
		} else {
			if b == x {
				return andRewrite(g, x, y.Not(), depth+1) // ~(xy)·x = x~y
			}
			if b == y {
				return andRewrite(g, y, x.Not(), depth+1)
			}
		}
	}
	if bf != nil {
		x, y := bf[0], bf[1]
		if !b.Compl() {
			if a == x || a == y {
				return b
			}
			if a == x.Not() || a == y.Not() {
				return aig.False
			}
		} else {
			if a == x {
				return andRewrite(g, x, y.Not(), depth+1)
			}
			if a == y {
				return andRewrite(g, y, x.Not(), depth+1)
			}
		}
	}
	if af != nil && bf != nil {
		ax, ay := af[0], af[1]
		bx, by := bf[0], bf[1]
		if !a.Compl() && !b.Compl() {
			// (xy)(x~y) = 0 for any shared variable with opposite pair.
			if (ax == bx && ay == by.Not()) || (ax == by && ay == bx.Not()) ||
				(ay == bx && ax == by.Not()) || (ay == by && ax == bx.Not()) {
				return aig.False
			}
		}
		if a.Compl() && b.Compl() {
			// ~(xy)·~(x~y) = ~x
			if ax == bx && ay == by.Not() {
				return ax.Not()
			}
			if ay == by && ax == bx.Not() {
				return ay.Not()
			}
			if ax == by && ay == bx.Not() {
				return ax.Not()
			}
			if ay == bx && ax == by.Not() {
				return ay.Not()
			}
		}
	}
	return g.And(a, b)
}

// fanins returns the fanin pair of l's node when it is an AND, else nil.
func fanins(g *aig.AIG, l aig.Lit) *[2]aig.Lit {
	n := l.Node()
	if !g.IsAnd(n) {
		return nil
	}
	f0, f1 := g.Fanins(n)
	return &[2]aig.Lit{f0, f1}
}

// Fraig merges functionally equivalent nodes: random simulation partitions
// nodes into candidate classes; SAT proves (or refutes, yielding a fresh
// distinguishing pattern) each candidate merge. Each round's first
// counterexample adds one more simulation word, and the classes are split
// by that word alone (the incremental refinement of FRAIGs).
func Fraig(g *aig.AIG, cfg Config) *aig.AIG {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nPI := g.NumPIs()

	// Every node but the PIs (which cannot be merged away) starts in one
	// class, in node order.
	members := make([]int, 0, g.NumNodes()-nPI)
	members = append(members, 0)
	for n := nPI + 1; n < g.NumNodes(); n++ {
		members = append(members, n)
	}
	c := fraigClasses{members: members, ends: []int{len(members)}}

	// A node's signature is stored complemented when its first simulated
	// bit is 1, so complementary nodes share a class; flip holds that mask.
	words := make([]uint64, fraigSimWords*nPI)
	for i := range words {
		words[i] = rng.Uint64()
	}
	var flip []uint64
	for w := 0; w < fraigSimWords; w++ {
		vals := g.SimWords(words[w*nPI : (w+1)*nPI])
		if w == 0 {
			flip = make([]uint64, len(vals))
			for n, v := range vals {
				flip[n] = -(v & 1)
			}
		}
		c.refine(vals, flip)
	}

	solver := sat.New()
	cnf := aig.ToCNF(solver, g)
	subst := g.NewSubstMap()
	refuted := make(map[[2]int]bool)

	for round := 0; ; round++ {
		var cex []uint64
		// The first Sat pair supplies the counterexample pattern for the
		// next round, so the class visit order shapes every later
		// signature: refine keeps it fixed run to run.
		start := 0
		for _, end := range c.ends {
			class := c.members[start:end]
			start = end
			rep := class[0]
			for _, n := range class[1:] {
				if subst[n] != aig.NoSubst || refuted[[2]int{rep, n}] {
					continue
				}
				// Candidate polarity: equal canonical signatures mean
				// n == rep XOR (phase difference).
				compl := flip[rep] != flip[n]
				a := aig.MkLit(rep, false)
				b := aig.MkLit(n, compl)
				switch cnf.ProveEqual(a, b, fraigMaxConflicts) {
				case sat.Unsat:
					subst[n] = aig.MkLit(rep, compl)
				case sat.Sat:
					refuted[[2]int{rep, n}] = true
					if cex == nil {
						// Pattern 0 is the counterexample; the other 63
						// bits are random neighbors to split more classes.
						cex = make([]uint64, nPI)
						for i := 0; i < nPI; i++ {
							cex[i] = rng.Uint64() &^ 1
							if cnf.Model(g.PI(i)) {
								cex[i] |= 1
							}
						}
					}
				default:
					refuted[[2]int{rep, n}] = true // budget: give up on pair
				}
			}
		}
		if cex == nil || round == fraigRounds-1 {
			break
		}
		c.refine(g.SimWords(cex), flip)
	}
	return g.Rebuild(subst)
}

// fraigClasses are FRAIG's candidate equivalence classes of two or more
// nodes: class i is members[ends[i-1]:ends[i]] (from 0 for i = 0).
type fraigClasses struct {
	members []int
	ends    []int
}

// refine splits every class by one more simulated word, vals[n] ^ flip[n]
// for node n, and drops the parts of a single node: they cannot merge
// again. The order is the one a sort of the nodes' whole signatures as
// little-endian byte strings would give: classes keep their order, the
// parts of a class follow the new word's byte-reversed value, and members
// stay in node order.
func (c *fraigClasses) refine(vals, flip []uint64) {
	byWord := func(a, b int) int {
		ka := bits.ReverseBytes64(vals[a] ^ flip[a])
		kb := bits.ReverseBytes64(vals[b] ^ flip[b])
		if ka != kb {
			return cmp.Compare(ka, kb)
		}
		return a - b
	}
	next := make([]int, 0, len(c.ends))
	kept, start := 0, 0
	for _, end := range c.ends {
		class := c.members[start:end]
		start = end
		w0 := vals[class[0]] ^ flip[class[0]]
		split := false
		for _, n := range class[1:] {
			if vals[n]^flip[n] != w0 {
				split = true
				break
			}
		}
		if split {
			slices.SortFunc(class, byWord)
		}
		// Copy each part of two or more nodes down over the dropped ones;
		// kept never passes the part being read.
		for i := 0; i < len(class); {
			w := vals[class[i]] ^ flip[class[i]]
			j := i + 1
			for j < len(class) && vals[class[j]]^flip[class[j]] == w {
				j++
			}
			if j-i >= 2 {
				kept += copy(c.members[kept:], class[i:j])
				next = append(next, kept)
			}
			i = j
		}
	}
	c.members = c.members[:kept]
	c.ends = next
}

// Collapse rebuilds every output from its BDD's irredundant SOP (choosing
// the smaller of the onset and offset covers). ok is false when no output
// could be collapsed within bddBudget. The Config is not read: the pass has
// no seed and no settable budget.
func Collapse(g *aig.AIG, _ Config) (*circuit.Circuit, bool) {
	c := circuit.New()
	piSigs := make([]circuit.Signal, g.NumPIs())
	for i, name := range g.PINames() {
		piSigs[i] = c.AddPI(name)
	}
	any := false
	orig := g.ToCircuit()
	for po := 0; po < g.NumPOs(); po++ {
		m, root, err := bdd.FromAIGOutput(g, po, bddBudget)
		if err != nil {
			// Keep the original cone: re-synthesize just this output from
			// the original circuit through a fresh sub-AIG.
			copyCone(c, orig, po, piSigs)
			continue
		}
		// Some functions (parities) have small BDDs but exponential
		// covers: bound the cover size by the existing cone — a bigger
		// cover cannot win anyway.
		maxCubes := 4*g.NumAnds() + 1000
		onset, errOn := m.ISOPBounded(root, maxCubes)
		var negRoot bdd.Ref
		if gerr := m.Guard(func() { negRoot = m.Not(root) }); gerr != nil {
			copyCone(c, orig, po, piSigs)
			continue
		}
		offset, errOff := m.ISOPBounded(negRoot, maxCubes)
		if errOn != nil && errOff != nil {
			copyCone(c, orig, po, piSigs)
			continue
		}
		if errOn != nil {
			onset = nil
		}
		if errOff != nil {
			offset = nil
		}
		cover, negate := onset, false
		if errOn != nil || (errOff == nil && len(offset) < len(onset)) {
			cover, negate = offset, true
		}
		c.AddPO(g.PONames()[po], sop.SynthesizeFactored(c, cover, piSigs, negate))
		any = true
	}
	return c, any
}

// copyCone copies the logic cone of output po from src into dst, reusing
// dst's PI signals.
func copyCone(dst, src *circuit.Circuit, po int, piSigs []circuit.Signal) {
	dst.AddPO(src.PONames()[po], circuit.CopyCone(dst, piSigs, src, po))
}

// ProveEquivalent checks functional equivalence of two circuits with the
// same PI/PO arity via a SAT miter over a combined AIG. It returns
// (equivalent, completed): completed is false when the proofs ran out of
// their shared budget of maxConflicts conflicts (see Diagnose).
func ProveEquivalent(c1, c2 *circuit.Circuit, maxConflicts int64) (eq, completed bool) {
	verdict, _, _ := Diagnose(c1, c2, maxConflicts)
	switch verdict {
	case sat.Unsat:
		return true, true
	case sat.Sat:
		return false, true
	default:
		return false, false
	}
}

// Diagnose performs non-equivalence diagnosis — the paper's first motivating
// application. It compares the circuits output by output and, when they
// differ, returns a distinguishing input assignment and the index of the
// first differing output. The verdict is sat.Unsat for equivalent circuits,
// sat.Sat with a counterexample for non-equivalent ones, and sat.Unknown
// when the proofs ran out of conflicts. maxConflicts (0 = unlimited) bounds
// all outputs' proofs together: they share one solver, whose conflict
// count runs on from output to output.
func Diagnose(c1, c2 *circuit.Circuit, maxConflicts int64) (verdict sat.Status, cex []bool, badOutput int) {
	if c1.NumPI() != c2.NumPI() || c1.NumPO() != c2.NumPO() {
		return sat.Sat, nil, -1
	}
	// Build both into one AIG sharing PIs.
	g := aig.New(c1.PINames())
	lit1 := g.AddCircuit(c1)
	lit2 := g.AddCircuit(c2)
	solver := sat.New()
	cnf := aig.ToCNF(solver, g)
	for i := range lit1 {
		switch cnf.ProveEqual(lit1[i], lit2[i], maxConflicts) {
		case sat.Unsat:
		case sat.Sat:
			assignment := make([]bool, c1.NumPI())
			for pi := 0; pi < c1.NumPI(); pi++ {
				assignment[pi] = cnf.Model(g.PI(pi))
			}
			return sat.Sat, assignment, i
		default:
			return sat.Unknown, nil, -1
		}
	}
	return sat.Unsat, nil, -1
}
