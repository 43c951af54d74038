package aig

import "logicregression/internal/sat"

// CNF is the Tseitin encoding of an AIG into a SAT solver: one solver
// variable per AIG node (constant node excluded — its edges translate to
// fixed literals handled during clause emission).
type CNF struct {
	solver *sat.Solver
	vars   []int // AIG node -> solver var; -1 for the constant node
	// constLit is the solver variable pinned to false, or -1 when the
	// constant node was never referenced.
	constLit int
}

// ToCNF encodes every AND node of g (reachable or not) into a fresh set of
// variables in the solver and returns the mapping. Multiple AIGs can be
// encoded into one solver (e.g. for miter construction).
func ToCNF(s *sat.Solver, g *AIG) *CNF {
	c := &CNF{solver: s, vars: make([]int, g.NumNodes())}
	c.vars[0] = -1
	constVar := -1 // lazily allocated variable fixed to false
	getConst := func() int {
		if constVar < 0 {
			constVar = s.NewVar()
			s.AddClause(sat.MkLit(constVar, true))
		}
		return constVar
	}
	for n := 1; n < g.NumNodes(); n++ {
		c.vars[n] = s.NewVar()
	}
	lit := func(l Lit) sat.Lit {
		n := l.Node()
		v := c.vars[n]
		if n == 0 {
			v = getConst()
		}
		return sat.MkLit(v, l.Compl())
	}
	for n := g.NumPIs() + 1; n < g.NumNodes(); n++ {
		o := sat.MkLit(c.vars[n], false)
		a := lit(g.nodes[n].fan0)
		b := lit(g.nodes[n].fan1)
		// o <-> a AND b
		s.AddClause(o.Not(), a)
		s.AddClause(o.Not(), b)
		s.AddClause(o, a.Not(), b.Not())
	}
	c.constLit = constVar
	return c
}

// Lit translates an AIG edge into a solver literal.
func (c *CNF) Lit(l Lit) sat.Lit {
	n := l.Node()
	if n == 0 {
		if c.constLit < 0 {
			// The encoding never referenced the constant: allocate now.
			c.constLit = c.solver.NewVar()
			c.solver.AddClause(sat.MkLit(c.constLit, true))
		}
		return sat.MkLit(c.constLit, l.Compl())
	}
	return sat.MkLit(c.vars[n], l.Compl())
}

// ProveEqual checks whether edges a and b of the encoded AIG are functionally
// equal by asking the solver for a distinguishing assignment, in up to two
// Solve calls. maxConflicts (0 = unlimited) is the solver's MaxConflicts
// during both: it bounds the solver's conflicts since it was made, so
// proofs on one CNF share it. The result is sat.Unknown when the budget ran
// out, sat.Unsat when proven equal, sat.Sat when a counterexample exists.
func (c *CNF) ProveEqual(a, b Lit, maxConflicts int64) sat.Status {
	// a != b is satisfiable iff they differ: encode a XOR b via two queries
	// with assumptions: (a, ~b) or (~a, b).
	c.solver.MaxConflicts = maxConflicts
	defer func() { c.solver.MaxConflicts = 0 }()
	st1 := c.solver.Solve(c.Lit(a), c.Lit(b).Not())
	if st1 == sat.Sat {
		return sat.Sat
	}
	st2 := c.solver.Solve(c.Lit(a).Not(), c.Lit(b))
	if st2 == sat.Sat {
		return sat.Sat
	}
	if st1 == sat.Unsat && st2 == sat.Unsat {
		return sat.Unsat
	}
	return sat.Unknown
}

// Model reads the value of an AIG edge from the last Sat answer.
func (c *CNF) Model(l Lit) bool {
	n := l.Node()
	if n == 0 {
		return l.Compl()
	}
	return c.solver.Model(c.vars[n]) != l.Compl()
}
