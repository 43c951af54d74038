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

import "logicregression/internal/circuit"

// SynthesizeFactored builds the cover as factored multi-level gates in c.
// vars maps variable ids to signals, and every cube variable must index it;
// negate complements the result (the offset-cover option). Each division
// takes the literal in the most cubes, ties to the smallest variable and the
// positive literal before the negative one, so the structure is a function
// of the cover alone. The flat Synthesize remains available for callers
// that need two-level structure.
func SynthesizeFactored(c *circuit.Circuit, cv Cover, vars []circuit.Signal, negate bool) circuit.Signal {
	lits := newLitSignals(c, vars)
	out := factor(c, cv.Clone(), lits, make([]int, 2*len(vars)))
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

// factor recursively synthesizes the cover. counts is mostFrequentLiteral's
// scratch, two zeroed entries per variable.
func factor(c *circuit.Circuit, cv Cover, lits *litSignals, counts []int) circuit.Signal {
	switch len(cv) {
	case 0:
		return c.Const(false)
	case 1:
		return andCube(c, cv[0], lits)
	}
	best, count := mostFrequentLiteral(cv, counts)
	if count < 2 {
		// No sharing available: flat OR of cube ANDs.
		terms := make([]circuit.Signal, len(cv))
		for i, cube := range cv {
			terms[i] = andCube(c, cube, lits)
		}
		return c.OrTree(terms)
	}
	var quotient, remainder Cover
	for _, cube := range cv {
		if l, ok := cube.Has(best.Var); ok && l.Neg == best.Neg {
			quotient = append(quotient, removeVar(cube, best.Var))
		} else {
			remainder = append(remainder, cube)
		}
	}
	q := c.And(lits.signal(best), factor(c, quotient, lits, counts))
	if len(remainder) == 0 {
		return q
	}
	return c.Or(q, factor(c, remainder, lits, counts))
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

func removeVar(cube Cube, v int) Cube {
	out := make(Cube, 0, len(cube)-1)
	for _, l := range cube {
		if l.Var != v {
			out = append(out, l)
		}
	}
	return out
}
