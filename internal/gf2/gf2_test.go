package gf2

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// dot is the inner product of two rows over GF(2), the parity of their
// AND: the reference the planted equations are built from.
func dot(a, b Row) bool {
	parity := 0
	for i := range a {
		parity ^= bits.OnesCount64(a[i]&b[i]) & 1
	}
	return parity == 1
}

func TestRowBasics(t *testing.T) {
	r := NewRow(130)
	r.Set(0, true)
	r.Set(64, true)
	r.Set(129, true)
	if !r.Get(0) || !r.Get(64) || !r.Get(129) || r.Get(1) {
		t.Fatal("Get/Set broken")
	}
	r.Set(64, false)
	if r.Get(64) {
		t.Fatal("clear failed")
	}
	other := NewRow(130)
	other.Set(0, true)
	r.Xor(other)
	if r.Get(0) {
		t.Fatal("xor failed")
	}
	if NewRow(5).IsZero() != true || r.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestSolveIdentity(t *testing.T) {
	// x0=1, x1=0, x2=1.
	s := NewSystem(3)
	for i, v := range []bool{true, false, true} {
		row := NewRow(3)
		row.Set(i, true)
		s.AddEquation(row, v)
	}
	sol, ok := s.Solve()
	if !ok {
		t.Fatal("inconsistent")
	}
	if !sol.Get(0) || sol.Get(1) || !sol.Get(2) {
		t.Fatalf("solution wrong")
	}
}

func TestSolveDetectsInconsistency(t *testing.T) {
	// x0 = 0 and x0 = 1.
	s := NewSystem(1)
	row := NewRow(1)
	row.Set(0, true)
	s.AddEquation(row, false)
	s.AddEquation(row, true)
	if _, ok := s.Solve(); ok {
		t.Fatal("inconsistent system solved")
	}
}

func TestSolveUnderdetermined(t *testing.T) {
	// x0 ⊕ x1 = 1 with 3 unknowns: any particular solution must satisfy it.
	s := NewSystem(3)
	row := NewRow(3)
	row.Set(0, true)
	row.Set(1, true)
	s.AddEquation(row, true)
	sol, ok := s.Solve()
	if !ok {
		t.Fatal("consistent system rejected")
	}
	if sol.Get(0) == sol.Get(1) {
		t.Fatal("solution violates the equation")
	}
}

func TestSolveRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		// Plant a secret solution, generate consistent equations.
		secret := NewRow(n)
		for i := 0; i < n; i++ {
			secret.Set(i, rng.Intn(2) == 1)
		}
		s := NewSystem(n)
		m := n + rng.Intn(20)
		for k := 0; k < m; k++ {
			row := NewRow(n)
			for i := 0; i < n; i++ {
				row.Set(i, rng.Intn(2) == 1)
			}
			s.AddEquation(row, dot(row, secret))
		}
		sol, ok := s.Solve()
		if !ok {
			t.Fatalf("trial %d: planted system inconsistent", trial)
		}
		// The particular solution must satisfy every equation.
		for k := range s.rows {
			if dot(s.rows[k], sol) != s.rhs[k] {
				t.Fatalf("trial %d: solution violates equation %d", trial, k)
			}
		}
	}
}

// Property: solving a system with >= n independent planted equations
// recovers the exact secret.
func TestQuickExactRecovery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		secret := NewRow(n)
		for i := 0; i < n; i++ {
			secret.Set(i, rng.Intn(2) == 1)
		}
		s := NewSystem(n)
		// Overdetermined: n+40 random rows are rank-deficient with
		// probability below 2^-39.
		for k := 0; k < n+40; k++ {
			row := NewRow(n)
			for i := 0; i < n; i++ {
				row.Set(i, rng.Intn(2) == 1)
			}
			s.AddEquation(row, dot(row, secret))
		}
		sol, ok := s.Solve()
		if !ok {
			return false
		}
		for i := 0; i < n; i++ {
			if sol.Get(i) != secret.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
