package sop

// Algebraic factoring (SIS-style "quick factor"): a cover is synthesized as
// multi-level logic by recursively dividing out the most frequent literal,
//
//	F  =  l * (F / l)  +  (F - cubes containing l)
//
// which shares the literal across its quotient instead of repeating it in
// every cube. On the structured covers the learner produces this typically
// shrinks gate counts severalfold versus flat AND-OR synthesis — the same
// role `dc2`-class multilevel synthesis plays for the paper.

import (
	"slices"

	"logicregression/internal/circuit"
)

// SynthesizeFactored builds the cover as factored multi-level gates in c.
// vars maps variable ids to signals, and every cube variable must index it;
// negate complements the result (the offset-cover option). Each division
// takes the literal in the most cubes, ties to the smallest variable and the
// positive literal before the negative one, so the structure is a function
// of the cover alone. The flat Synthesize remains available for callers
// that need two-level structure. cv is read, never modified.
func SynthesizeFactored(c *circuit.Circuit, cv Cover, vars []circuit.Signal, negate bool) circuit.Signal {
	f := factorer{c: c, sigs: newLitSignals(c, vars), counts: make([]int, 2*len(vars))}
	out := f.factor(cv)
	if negate {
		out = negSignal(c, out)
	}
	return out
}

// negSignal complements a signal, folding constants so an empty or universal
// cover under the offset option yields CONST1/CONST0 instead of a
// NOT-of-constant gate (a const-fanin lint finding).
func negSignal(c *circuit.Circuit, s circuit.Signal) circuit.Signal {
	switch c.Node(s).Type {
	case circuit.Const0:
		return c.Const(true)
	case circuit.Const1:
		return c.Const(false)
	}
	return c.NotGate(s)
}

// litSignals caches the signal of every literal so complemented variables
// are inverted once, not once per cube.
type litSignals struct {
	c    *circuit.Circuit
	pos  []circuit.Signal
	neg  []circuit.Signal
	have []bool
}

func newLitSignals(c *circuit.Circuit, vars []circuit.Signal) *litSignals {
	return &litSignals{
		c:    c,
		pos:  vars,
		neg:  make([]circuit.Signal, len(vars)),
		have: make([]bool, len(vars)),
	}
}

func (ls *litSignals) signal(l Literal) circuit.Signal {
	if !l.Neg {
		return ls.pos[l.Var]
	}
	if !ls.have[l.Var] {
		ls.neg[l.Var] = ls.c.NotGate(ls.pos[l.Var])
		ls.have[l.Var] = true
	}
	return ls.neg[l.Var]
}

// factorer is one SynthesizeFactored call's working memory: two stacks
// that hold the covers of the divisions in progress, so that a division
// allocates nothing once they have grown. A division pushes its quotient's
// cubes, less the divisor literal, onto lits, and the headers of its
// quotient and remainder onto cubes; the recursions over them push above
// that, and each level pops what it pushed when the recursions that read
// it have returned.
type factorer struct {
	c      *circuit.Circuit
	sigs   *litSignals
	counts []int // mostFrequentLiteral's scratch, two zeroed entries per variable
	lits   []Literal
	cubes  []Cube
}

// factor recursively synthesizes the cover.
func (f *factorer) factor(cv Cover) circuit.Signal {
	switch len(cv) {
	case 0:
		return f.c.Const(false)
	case 1:
		return andCube(f.c, cv[0], f.sigs)
	}
	best, count := mostFrequentLiteral(cv, f.counts)
	if count < 2 {
		// No sharing available: flat OR of cube ANDs.
		terms := make([]circuit.Signal, len(cv))
		for i, cube := range cv {
			terms[i] = andCube(f.c, cube, f.sigs)
		}
		return f.c.OrTree(terms)
	}
	// Reserve the headers: count cubes hold best and form the quotient.
	litTop, cubeTop := len(f.lits), len(f.cubes)
	f.cubes = slices.Grow(f.cubes, len(cv))[:cubeTop+len(cv)]
	mid := cubeTop + count
	quotient, remainder := f.cubes[cubeTop:cubeTop:mid], f.cubes[mid:mid:len(f.cubes)]
	for _, cube := range cv {
		if l, ok := cube.Has(best.Var); !ok || l.Neg != best.Neg {
			remainder = append(remainder, cube)
			continue
		}
		start := len(f.lits)
		for _, l := range cube {
			if l.Var != best.Var {
				f.lits = append(f.lits, l)
			}
		}
		quotient = append(quotient, f.lits[start:len(f.lits):len(f.lits)])
	}
	// The divisor literal's NOT gate, when it is new, comes before the
	// quotient's gates: the order of the gates is the netlist's.
	out := f.c.And(f.sigs.signal(best), f.factor(quotient))
	f.lits = f.lits[:litTop]
	if len(remainder) > 0 {
		out = f.c.Or(out, f.factor(remainder))
	}
	f.cubes = f.cubes[:cubeTop]
	return out
}

func andCube(c *circuit.Circuit, cube Cube, lits *litSignals) circuit.Signal {
	if len(cube) == 0 {
		return c.Const(true)
	}
	sigs := make([]circuit.Signal, len(cube))
	for i, l := range cube {
		sigs[i] = lits.signal(l)
	}
	return c.AndTree(sigs)
}

// mostFrequentLiteral returns the literal occurring in the most cubes and
// its count: ties go to the smallest variable, then to the positive
// literal, the order less gives. counts holds two zeroed entries per
// variable (positive, then negative), and it is zeroed again on return.
func mostFrequentLiteral(cv Cover, counts []int) (Literal, int) {
	for _, cube := range cv {
		for _, l := range cube {
			counts[litIndex(l)]++
		}
	}
	var best Literal
	bestN := 0
	for _, cube := range cv {
		for _, l := range cube {
			// A literal's first occurrence reads its total and clears it;
			// later ones read 0, which never beats bestN >= 1.
			i := litIndex(l)
			if n := counts[i]; n > bestN || (n == bestN && less(l, best)) {
				best, bestN = l, n
			}
			counts[i] = 0
		}
	}
	return best, bestN
}

// litIndex is l's entry in mostFrequentLiteral's counts.
func litIndex(l Literal) int {
	if l.Neg {
		return 2*l.Var + 1
	}
	return 2 * l.Var
}

// less gives a deterministic tie-break order on literals.
func less(a, b Literal) bool {
	if a.Var != b.Var {
		return a.Var < b.Var
	}
	return !a.Neg && b.Neg
}
