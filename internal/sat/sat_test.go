package sat

import (
	"math/rand"
	"testing"
)

func TestLitBasics(t *testing.T) {
	l := MkLit(3, false)
	if l.Var() != 3 || l.Neg() {
		t.Fatalf("lit = %v", l)
	}
	n := l.Not()
	if n.Var() != 3 || !n.Neg() {
		t.Fatalf("not = %v", n)
	}
	if n.Not() != l {
		t.Fatal("double negation")
	}
	if l.String() != "x3" || n.String() != "~x3" {
		t.Fatalf("strings %q %q", l, n)
	}
}

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	if !s.Model(a) {
		t.Fatal("model should set a")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if !s.AddClause(MkLit(a, true)) {
		// Adding the conflicting unit may already report unsat.
		return
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("empty clause accepted")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(MkLit(a, false), MkLit(a, true)) {
		t.Fatal("tautology rejected")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestImplicationChain(t *testing.T) {
	// a, a->b, b->c, c->d; query with ~d must be unsat.
	s := New()
	vars := make([]int, 4)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(MkLit(vars[0], false))
	for i := 0; i < 3; i++ {
		s.AddClause(MkLit(vars[i], true), MkLit(vars[i+1], false))
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	for _, v := range vars {
		if !s.Model(v) {
			t.Fatalf("var %d not implied true", v)
		}
	}
	if got := s.Solve(MkLit(vars[3], true)); got != Unsat {
		t.Fatalf("Solve(~d) = %v", got)
	}
	// Solver remains usable after an unsat assumption call.
	if got := s.Solve(); got != Sat {
		t.Fatalf("re-Solve = %v", got)
	}
}

func TestXorChainUnsat(t *testing.T) {
	// x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 is unsatisfiable.
	s := New()
	x := []int{s.NewVar(), s.NewVar(), s.NewVar()}
	addXor := func(a, b int, val bool) {
		if val {
			s.AddClause(MkLit(a, false), MkLit(b, false))
			s.AddClause(MkLit(a, true), MkLit(b, true))
		} else {
			s.AddClause(MkLit(a, false), MkLit(b, true))
			s.AddClause(MkLit(a, true), MkLit(b, false))
		}
	}
	addXor(x[0], x[1], true)
	addXor(x[1], x[2], true)
	addXor(x[0], x[2], true)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestPigeonhole43(t *testing.T) {
	// 4 pigeons, 3 holes: classic small unsat instance exercising learning.
	s := New()
	const P, H = 4, 3
	v := make([][]int, P)
	for p := range v {
		v[p] = make([]int, H)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < P; p++ {
		lits := make([]Lit, H)
		for h := 0; h < H; h++ {
			lits[h] = MkLit(v[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(MkLit(v[p1][h], true), MkLit(v[p2][h], true))
			}
		}
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(4,3) = %v", got)
	}
}

func TestPigeonhole33Sat(t *testing.T) {
	s := New()
	const P, H = 3, 3
	v := make([][]int, P)
	for p := range v {
		v[p] = make([]int, H)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < P; p++ {
		lits := make([]Lit, H)
		for h := 0; h < H; h++ {
			lits[h] = MkLit(v[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(MkLit(v[p1][h], true), MkLit(v[p2][h], true))
			}
		}
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(3,3) = %v", got)
	}
	// Check the model is a valid assignment.
	for p := 0; p < P; p++ {
		found := false
		for h := 0; h < H; h++ {
			if s.Model(v[p][h]) {
				found = true
			}
		}
		if !found {
			t.Fatalf("pigeon %d unplaced in model", p)
		}
	}
}

// bruteForce checks satisfiability of a CNF by enumeration.
func bruteForce(nVars int, cnf [][]Lit) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := m>>uint(l.Var())&1 == 1
				if val != l.Neg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		nVars := 4 + rng.Intn(6)
		nClauses := 3 + rng.Intn(30)
		var cnf [][]Lit
		for c := 0; c < nClauses; c++ {
			var cl []Lit
			for k := 0; k < 3; k++ {
				cl = append(cl, MkLit(rng.Intn(nVars), rng.Intn(2) == 1))
			}
			cnf = append(cnf, cl)
		}
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		addOK := true
		for _, cl := range cnf {
			if !s.AddClause(cl...) {
				addOK = false
				break
			}
		}
		want := bruteForce(nVars, cnf)
		if !addOK {
			if want {
				t.Fatalf("trial %d: AddClause reported unsat on satisfiable CNF", trial)
			}
			continue
		}
		got := s.Solve()
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver %v, brute force sat=%v (vars=%d cnf=%v)",
				trial, got, want, nVars, cnf)
		}
		if got == Sat {
			// Verify the model.
			for _, cl := range cnf {
				sat := false
				for _, l := range cl {
					if s.Model(l.Var()) != l.Neg() {
						sat = true
					}
				}
				if !sat {
					t.Fatalf("trial %d: model violates clause %v", trial, cl)
				}
			}
		}
	}
}

func TestAssumptionsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nVars := 5 + rng.Intn(4)
		var cnf [][]Lit
		for c := 0; c < 15; c++ {
			var cl []Lit
			for k := 0; k < 3; k++ {
				cl = append(cl, MkLit(rng.Intn(nVars), rng.Intn(2) == 1))
			}
			cnf = append(cnf, cl)
		}
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		ok := true
		for _, cl := range cnf {
			if !s.AddClause(cl...) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Ask three different assumption sets on the same solver.
		for q := 0; q < 3; q++ {
			a1 := MkLit(rng.Intn(nVars), rng.Intn(2) == 1)
			a2 := MkLit(rng.Intn(nVars), rng.Intn(2) == 1)
			want := bruteForce(nVars, append(append([][]Lit{}, cnf...), []Lit{a1}, []Lit{a2}))
			got := s.Solve(a1, a2)
			if (got == Sat) != want {
				t.Fatalf("trial %d q%d: assumptions (%v,%v): solver %v, want sat=%v",
					trial, q, a1, a2, got, want)
			}
		}
	}
}

func TestMaxConflictsReturnsUnknown(t *testing.T) {
	// A hard instance (PHP 7/6) with a tiny conflict budget.
	s := New()
	pigeonhole(s, 7, 6, -1)
	s.MaxConflicts = 10
	if got := s.Solve(); got != Unknown {
		t.Fatalf("Solve with tiny budget = %v, want Unknown", got)
	}
}

func TestStatsAdvance(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.Solve()
	_, decisions, _ := s.Stats()
	if decisions == 0 {
		t.Fatal("no decisions recorded")
	}
}

func TestClauseMinimizationSoundness(t *testing.T) {
	// Heavier randomized differential test than the base one: clause
	// minimization must never flip a verdict.
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 400; trial++ {
		nVars := 5 + rng.Intn(7)
		nClauses := 10 + rng.Intn(45)
		var cnf [][]Lit
		for c := 0; c < nClauses; c++ {
			width := 2 + rng.Intn(3)
			var cl []Lit
			for k := 0; k < width; k++ {
				cl = append(cl, MkLit(rng.Intn(nVars), rng.Intn(2) == 1))
			}
			cnf = append(cnf, cl)
		}
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		ok := true
		for _, cl := range cnf {
			if !s.AddClause(cl...) {
				ok = false
				break
			}
		}
		want := bruteForce(nVars, cnf)
		if !ok {
			if want {
				t.Fatalf("trial %d: eager unsat on satisfiable CNF", trial)
			}
			continue
		}
		if got := s.Solve(); (got == Sat) != want {
			t.Fatalf("trial %d: solver %v, want sat=%v", trial, got, want)
		}
	}
}
