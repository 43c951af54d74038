// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver: two-literal watching, first-UIP learning, VSIDS-style activities
// with an activity heap for decisions, phase saving, and Luby restarts. It
// plays the role Berkeley ABC's internal SAT solver plays in the paper's
// optimization step: proving candidate node equivalences during FRAIG and
// checking circuit equivalence in tests.
package sat

import (
	"fmt"
	"math/bits"
	"slices"
)

// Lit is a literal: variable v in positive phase is 2v, negated 2v+1.
// Variables are 0-based.
type Lit uint32

// MkLit builds a literal from a variable index and sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("~x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// Status is a solver verdict.
type Status int8

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits    []Lit
	learned bool
	act     float64
}

type watcher struct {
	cref    int // clause index
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses []*clause
	watches [][]watcher // indexed by literal

	assign   []lbool // per variable
	level    []int   // decision level per variable
	reason   []int   // clause index that implied the variable, -1 for decisions
	phase    []bool  // saved phase
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	// A decision takes the unassigned variable with the highest activity,
	// the lowest index among equals: the one a scan of every variable
	// would pick. Unassigned variables with a positive activity wait in
	// order, a binary heap in that order; the others, which take nearly
	// every decision of a FRAIG proof, are set bits of zero, taken lowest
	// first. An assigned variable leaves either only when a pick meets it
	// (MiniSat's lazy deletion), and backtracking releases every variable
	// it unassigns into the one its activity calls for.
	order   []int
	heapPos []int    // variable -> index in order, -1 when absent
	free    int      // unassigned variables with a positive activity
	zero    []uint64 // bit v: v had activity 0 when it was last released
	zeroLow int      // the words of zero below this one are empty

	// seen marks variables during analyze and is all false between calls;
	// toClear holds the marks analyze leaves set.
	seen    []bool
	toClear []Lit

	conflicts  int64
	decisions  int64
	propagated int64
	// curAssumptions is the number of currently open assumption levels.
	curAssumptions int

	// MaxConflicts, when positive, makes Solve return Unknown once the
	// solver's conflict count reaches it. The count is the one Stats
	// reports: it runs on across calls, so on a reused solver the budget
	// is shared by every call since New, and a call made past it returns
	// Unknown at its first conflict that does not learn a unit clause.
	MaxConflicts int64
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1}
}

// NewVar adds a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.watches = append(s.watches, nil, nil)
	s.seen = append(s.seen, false)
	s.heapPos = append(s.heapPos, -1)
	if v%64 == 0 {
		s.zero = append(s.zero, 0)
	}
	s.release(v)
	return v
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return len(s.assign) }

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

// AddClause adds a clause. It returns false if the formula became trivially
// unsatisfiable (empty clause or conflicting units at level 0).
func (s *Solver) AddClause(lits ...Lit) bool {
	// Remove duplicates and detect tautologies; clauses are short, so a
	// scan of the kept literals beats a set.
	out := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if int(l.Var()) >= s.NumVars() {
			panic(fmt.Sprintf("sat: literal %v beyond %d vars", l, s.NumVars()))
		}
		if slices.Contains(out, l.Not()) {
			return true // tautology
		}
		if slices.Contains(out, l) {
			continue
		}
		// Drop literals already false at level 0; satisfied clause is a no-op.
		if len(s.trailLim) == 0 {
			switch s.value(l) {
			case lTrue:
				return true
			case lFalse:
				continue
			}
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		return false
	case 1:
		return s.enqueue(out[0], -1) && s.propagate() == -1
	}
	s.attach(&clause{lits: out})
	return true
}

func (s *Solver) attach(c *clause) int {
	cref := len(s.clauses)
	s.clauses = append(s.clauses, c)
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{cref: cref, blocker: c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{cref: cref, blocker: c.lits[0]})
	return cref
}

func (s *Solver) enqueue(l Lit, from int) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	if s.activity[v] > 0 {
		s.free--
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.phase[v] = !l.Neg()
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; returns the conflicting clause index
// or -1.
func (s *Solver) propagate() int {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagated++
		ws := s.watches[p]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := s.clauses[w.cref]
			// Ensure the false literal is lits[1].
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, watcher{cref: w.cref, blocker: c.lits[0]})
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{cref: w.cref, blocker: c.lits[0]})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflict.
			kept = append(kept, w)
			if s.value(c.lits[0]) == lFalse {
				// Conflict: keep remaining watchers and bail.
				kept = append(kept, ws[wi+1:]...)
				s.watches[p] = kept
				s.qhead = len(s.trail)
				return w.cref
			}
			s.enqueue(c.lits[0], w.cref)
		}
		s.watches[p] = kept
	}
	return -1
}

// analyze computes the first-UIP learned clause and backtrack level.
func (s *Solver) analyze(confl int) ([]Lit, int) {
	learned := []Lit{0} // slot 0 for the asserting literal
	seen := s.seen
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	first := true

	for {
		c := s.clauses[confl]
		start := 0
		if !first {
			start = 1 // lits[0] is p in the reason clause
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if !seen[v] && s.level[v] > 0 {
				seen[v] = true
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learned = append(learned, q)
				}
			}
		}
		// Pick next literal from trail at current level.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = false
		counter--
		first = false
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learned[0] = p.Not()
	s.toClear = append(s.toClear[:0], learned[1:]...)

	// Clause minimization (MiniSat's "basic" rule): a literal q is
	// redundant when its reason clause's other literals are all either
	// already in the learned clause or assigned at level 0 — resolving on
	// q would add nothing new. seen[] still marks the learned vars here.
	kept := learned[:1]
	for _, q := range learned[1:] {
		r := s.reason[q.Var()]
		redundant := r >= 0
		if redundant {
			for _, pl := range s.clauses[r].lits {
				v := pl.Var()
				if v == q.Var() {
					continue
				}
				if !seen[v] && s.level[v] > 0 {
					redundant = false
					break
				}
			}
		}
		if !redundant {
			kept = append(kept, q)
		}
	}
	learned = kept
	for _, q := range s.toClear {
		seen[q.Var()] = false
	}

	// Backtrack level: second-highest level in the clause.
	bt := 0
	if len(learned) > 1 {
		maxI := 1
		for i := 2; i < len(learned); i++ {
			if s.level[learned[i].Var()] > s.level[learned[maxI].Var()] {
				maxI = i
			}
		}
		learned[1], learned[maxI] = learned[maxI], learned[1]
		bt = s.level[learned[1].Var()]
	}
	return learned, bt
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.rebuildOrder()
	}
	if i := s.heapPos[v]; i >= 0 {
		s.heapUp(i)
	}
}

// rebuildOrder restores the heap after the activities were scaled. Scaling
// keeps their order but can round distinct ones to equal values, whose
// order then falls to the index, and can round small ones to zero, whose
// variables belong in zero.
func (s *Solver) rebuildOrder() {
	kept := s.order[:0]
	for _, v := range s.order {
		if s.activity[v] > 0 {
			kept = append(kept, v)
			continue
		}
		s.heapPos[v] = -1
		if s.assign[v] == lUndef {
			s.free--
			s.release(v)
		}
	}
	s.order = kept
	for i, v := range kept {
		s.heapPos[v] = i
	}
	for i := len(kept)/2 - 1; i >= 0; i-- {
		s.heapDown(i)
	}
}

// release makes the unassigned variable v a decision candidate again.
func (s *Solver) release(v int) {
	if s.activity[v] == 0 {
		s.zero[v/64] |= 1 << (v % 64)
		s.zeroLow = min(s.zeroLow, v/64)
		return
	}
	s.free++
	if s.heapPos[v] < 0 { // else no pick met it while it was assigned
		s.order = append(s.order, v)
		s.heapUp(len(s.order) - 1)
	}
}

// before reports whether variable a is decided before b: higher activity
// first, then the lower index.
func (s *Solver) before(a, b int) bool {
	return s.activity[a] > s.activity[b] || s.activity[a] == s.activity[b] && a < b
}

func (s *Solver) heapUp(i int) {
	v := s.order[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(v, s.order[p]) {
			break
		}
		s.order[i] = s.order[p]
		s.heapPos[s.order[i]] = i
		i = p
	}
	s.order[i] = v
	s.heapPos[v] = i
}

func (s *Solver) heapDown(i int) {
	v := s.order[i]
	for {
		c := 2*i + 1
		if c >= len(s.order) {
			break
		}
		if c+1 < len(s.order) && s.before(s.order[c+1], s.order[c]) {
			c++
		}
		if !s.before(s.order[c], v) {
			break
		}
		s.order[i] = s.order[c]
		s.heapPos[s.order[i]] = i
		i = c
	}
	s.order[i] = v
	s.heapPos[v] = i
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = -1
		s.release(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// pickBranch returns the next decision: the unassigned variable with the
// highest activity (the lowest index among equals) in its saved phase.
func (s *Solver) pickBranch() (Lit, bool) {
	if len(s.trail) == len(s.assign) {
		// Every variable is assigned. The scan of zero below relies on
		// this check to find a variable.
		return 0, false
	}
	for s.free > 0 {
		v := s.order[0]
		last := s.order[len(s.order)-1]
		s.order = s.order[:len(s.order)-1]
		s.heapPos[v] = -1
		if len(s.order) > 0 {
			s.order[0] = last
			s.heapDown(0)
		}
		if s.assign[v] == lUndef {
			return MkLit(v, !s.phase[v]), true
		}
	}
	// Every unassigned variable has activity 0: take the lowest, dropping
	// the bits of variables assigned or bumped since their release.
	for w := s.zeroLow; ; w++ {
		for s.zero[w] != 0 {
			v := w*64 + bits.TrailingZeros64(s.zero[w])
			s.zero[w] &= s.zero[w] - 1
			if s.assign[v] == lUndef && s.activity[v] == 0 {
				s.zeroLow = w
				return MkLit(v, !s.phase[v]), true
			}
		}
	}
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// Solve decides satisfiability under the given assumptions. On Sat, Model
// reports the satisfying assignment. MaxConflicts (if set) bounds the search
// and yields Unknown when exceeded.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.backtrackTo(0)
	s.curAssumptions = 0
	if s.propagate() != -1 {
		return Unsat
	}
	restartNum := int64(1)
	budget := luby(restartNum) * 100

	for {
		confl := s.propagate()
		if confl != -1 {
			s.conflicts++
			if s.decisionLevel() == 0 {
				return Unsat
			}
			// Treat conflicts under assumption levels conservatively:
			// analyze requires decision levels, assumptions occupy the
			// first levels; a conflict at an assumption-only level means
			// Unsat under these assumptions.
			if s.decisionLevel() <= s.assumptionLevels() {
				s.backtrackTo(0)
				return Unsat
			}
			learned, bt := s.analyze(confl)
			s.backtrackTo(bt)
			if bt < s.curAssumptions {
				// Assumptions above bt were popped; the main loop
				// re-places them as decisions.
				s.curAssumptions = bt
			}
			if len(learned) == 1 {
				s.backtrackTo(0)
				if !s.enqueue(learned[0], -1) {
					return Unsat
				}
				if s.propagate() != -1 {
					return Unsat
				}
				if !s.replayAssumptions(assumptions) {
					return Unsat
				}
				continue
			}
			cref := s.attach(&clause{lits: learned, learned: true})
			s.enqueue(learned[0], cref)
			s.varInc /= 0.95
			if s.MaxConflicts > 0 && s.conflicts >= s.MaxConflicts {
				s.backtrackTo(0)
				return Unknown
			}
			if s.conflicts >= budget {
				restartNum++
				budget = s.conflicts + luby(restartNum)*100
				s.backtrackTo(s.assumptionLevels())
			}
			continue
		}

		// Place pending assumptions as decisions.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already satisfied: open a level to keep accounting simple.
				s.trailLim = append(s.trailLim, len(s.trail))
				s.curAssumptions = s.decisionLevel()
				continue
			case lFalse:
				s.backtrackTo(0)
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.curAssumptions = s.decisionLevel()
			s.enqueue(a, -1)
			continue
		}
		s.curAssumptions = len(assumptions)

		l, ok := s.pickBranch()
		if !ok {
			return Sat
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, -1)
	}
}

func (s *Solver) assumptionLevels() int { return s.curAssumptions }

func (s *Solver) replayAssumptions(assumptions []Lit) bool {
	// After a level-0 learned unit, re-establishing assumptions is handled
	// lazily by the main loop; nothing to do here beyond checking
	// consistency.
	for _, a := range assumptions {
		if s.value(a) == lFalse && s.level[a.Var()] == 0 {
			return false
		}
	}
	s.curAssumptions = 0
	return true
}

// Model returns the value of variable v in the last Sat answer.
func (s *Solver) Model(v int) bool { return s.assign[v] == lTrue }

// Stats reports search effort counters.
func (s *Solver) Stats() (conflicts, decisions, propagations int64) {
	return s.conflicts, s.decisions, s.propagated
}
