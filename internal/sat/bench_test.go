package sat

import (
	"math/rand"
	"testing"
)

func BenchmarkSolvePigeonhole6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 7, 6, -1)
		if s.Solve() != Unsat {
			b.Fatal("PHP(7,6) must be unsat")
		}
	}
}

func BenchmarkSolveRandom3SAT(b *testing.B) {
	// Near the sat/unsat threshold (clause ratio ~4.2) at 60 vars.
	rng := rand.New(rand.NewSource(5))
	const nVars, nClauses = 60, 252
	for i := 0; i < b.N; i++ {
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		ok := true
		for c := 0; c < nClauses && ok; c++ {
			ok = s.AddClause(
				MkLit(rng.Intn(nVars), rng.Intn(2) == 1),
				MkLit(rng.Intn(nVars), rng.Intn(2) == 1),
				MkLit(rng.Intn(nVars), rng.Intn(2) == 1),
			)
		}
		if ok {
			s.Solve()
		}
	}
}
