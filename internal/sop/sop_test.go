package sop

import (
	"math/rand"
	"testing"
	"testing/quick"

	"logicregression/internal/circuit"
)

func lit(v int, neg bool) Literal { return Literal{Var: v, Neg: neg} }

func TestNewCubeSortsAndRejectsDuplicates(t *testing.T) {
	c, ok := NewCube(lit(3, false), lit(1, true), lit(2, false))
	if !ok {
		t.Fatal("NewCube rejected valid literals")
	}
	if c[0].Var != 1 || c[1].Var != 2 || c[2].Var != 3 {
		t.Fatalf("cube not sorted: %v", c)
	}
	if _, ok := NewCube(lit(1, false), lit(1, true)); ok {
		t.Fatal("NewCube accepted contradictory literals")
	}
	if _, ok := NewCube(lit(1, false), lit(1, false)); ok {
		t.Fatal("NewCube accepted duplicate literals")
	}
}

func TestCubeWithKeepsOrderAndPanicsOnRebind(t *testing.T) {
	c, _ := NewCube(lit(1, false), lit(5, true))
	d := c.With(lit(3, false))
	if len(d) != 3 || d[1].Var != 3 {
		t.Fatalf("With produced %v", d)
	}
	if len(c) != 2 {
		t.Fatal("With mutated receiver")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rebinding did not panic")
		}
	}()
	d.With(lit(5, false))
}

func TestCubeHas(t *testing.T) {
	c, _ := NewCube(lit(2, true), lit(7, false))
	if l, ok := c.Has(2); !ok || !l.Neg {
		t.Fatalf("Has(2) = %v, %v", l, ok)
	}
	if _, ok := c.Has(3); ok {
		t.Fatal("Has(3) true on unbound var")
	}
}

func TestCubeEvalAndApply(t *testing.T) {
	c, _ := NewCube(lit(0, false), lit(2, true))
	a := []bool{true, false, false}
	if !c.Eval(a) {
		t.Fatal("Eval false on satisfying assignment")
	}
	a[2] = true
	if c.Eval(a) {
		t.Fatal("Eval true on falsifying assignment")
	}
	c.Apply(a)
	if !a[0] || a[2] {
		t.Fatalf("Apply produced %v", a)
	}
	if !Cube(nil).Eval([]bool{false}) {
		t.Fatal("empty cube must be constant 1")
	}
}

func TestCubeContains(t *testing.T) {
	general, _ := NewCube(lit(1, false))
	specific, _ := NewCube(lit(1, false), lit(2, true))
	if !general.Contains(specific) {
		t.Fatal("x1 should contain x1·!x2")
	}
	if specific.Contains(general) {
		t.Fatal("x1·!x2 should not contain x1")
	}
	other, _ := NewCube(lit(1, true), lit(2, true))
	if general.Contains(other) {
		t.Fatal("x1 should not contain !x1·!x2")
	}
	if !Cube(nil).Contains(general) {
		t.Fatal("empty cube contains everything")
	}
}

func TestMergeDistanceOne(t *testing.T) {
	a, _ := NewCube(lit(1, false), lit(2, true), lit(3, false))
	b, _ := NewCube(lit(1, false), lit(2, false), lit(3, false))
	m, ok := MergeDistanceOne(a, b)
	if !ok {
		t.Fatal("merge failed")
	}
	want, _ := NewCube(lit(1, false), lit(3, false))
	if m.Key() != want.Key() {
		t.Fatalf("merge = %v, want %v", m, want)
	}
	// Distance 2: no merge.
	c2, _ := NewCube(lit(1, true), lit(2, false), lit(3, false))
	if _, ok := MergeDistanceOne(a, c2); ok {
		t.Fatal("merged distance-2 cubes")
	}
	// Different variables: no merge.
	d, _ := NewCube(lit(1, false), lit(2, true), lit(4, false))
	if _, ok := MergeDistanceOne(a, d); ok {
		t.Fatal("merged cubes over different variables")
	}
	// Identical cubes: no merge (dedup handles those).
	if _, ok := MergeDistanceOne(a, a); ok {
		t.Fatal("merged identical cubes")
	}
}

func TestCoverEval(t *testing.T) {
	c1, _ := NewCube(lit(0, false), lit(1, false))
	c2, _ := NewCube(lit(2, false))
	cv := Cover{c1, c2}
	if !cv.Eval([]bool{true, true, false}) {
		t.Fatal("first cube should fire")
	}
	if !cv.Eval([]bool{false, false, true}) {
		t.Fatal("second cube should fire")
	}
	if cv.Eval([]bool{true, false, false}) {
		t.Fatal("no cube should fire")
	}
	if Cover(nil).Eval([]bool{true}) {
		t.Fatal("empty cover must be constant 0")
	}
}

func TestMinimizePreservesFunction(t *testing.T) {
	// Full minterm expansion of XOR-ish + redundancy over 3 vars.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		nVars := 3 + rng.Intn(3)
		var cv Cover
		truth := make([]bool, 1<<uint(nVars))
		for m := range truth {
			if rng.Intn(2) == 0 {
				continue
			}
			truth[m] = true
			var lits []Literal
			for v := 0; v < nVars; v++ {
				lits = append(lits, lit(v, m>>uint(v)&1 == 0))
			}
			c, _ := NewCube(lits...)
			cv = append(cv, c)
			if rng.Intn(4) == 0 { // inject duplicates
				cv = append(cv, append(Cube(nil), c...))
			}
		}
		minimized := Minimize(cv)
		if len(minimized) > len(cv) {
			t.Fatalf("Minimize grew the cover: %d -> %d", len(cv), len(minimized))
		}
		for m := range truth {
			assign := make([]bool, nVars)
			for v := 0; v < nVars; v++ {
				assign[v] = m>>uint(v)&1 == 1
			}
			if minimized.Eval(assign) != truth[m] {
				t.Fatalf("trial %d: Minimize changed function at minterm %b", trial, m)
			}
		}
	}
}

func TestMinimizeMergesFullCube(t *testing.T) {
	// All four minterms over 2 vars must collapse to the constant-1 cube.
	var cv Cover
	for m := 0; m < 4; m++ {
		c, _ := NewCube(lit(0, m&1 == 0), lit(1, m>>1&1 == 0))
		cv = append(cv, c)
	}
	got := Minimize(cv)
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("Minimize = %v, want constant 1", got)
	}
}

func TestSynthesizeMatchesCoverEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		nVars := 2 + rng.Intn(4)
		var cv Cover
		nCubes := rng.Intn(6)
		for k := 0; k < nCubes; k++ {
			var lits []Literal
			for v := 0; v < nVars; v++ {
				switch rng.Intn(3) {
				case 0:
					lits = append(lits, lit(v, false))
				case 1:
					lits = append(lits, lit(v, true))
				}
			}
			c, _ := NewCube(lits...)
			cv = append(cv, c)
		}
		for _, negate := range []bool{false, true} {
			cc := circuit.New()
			vars := make([]circuit.Signal, nVars)
			for v := range vars {
				vars[v] = cc.AddPI("x" + string(rune('a'+v)))
			}
			cc.AddPO("f", Synthesize(cc, cv, vars, negate))
			for m := 0; m < 1<<uint(nVars); m++ {
				assign := make([]bool, nVars)
				for v := 0; v < nVars; v++ {
					assign[v] = m>>uint(v)&1 == 1
				}
				want := cv.Eval(assign) != negate
				if got := cc.Eval(assign)[0]; got != want {
					t.Fatalf("trial %d negate=%v minterm %b: circuit %v, cover %v",
						trial, negate, m, got, want)
				}
			}
		}
	}
}

func TestLiteralsAndString(t *testing.T) {
	c1, _ := NewCube(lit(0, false), lit(1, true))
	c2, _ := NewCube(lit(2, false))
	cv := Cover{c1, c2}
	if cv.String() != "x0·!x1 + x2" {
		t.Fatalf("String = %q", cv.String())
	}
	if Cube(nil).String() != "1" || Cover(nil).String() != "0" {
		t.Fatal("constant cube/cover rendering wrong")
	}
}

// Property: Minimize never changes the function on random covers.
func TestQuickMinimizeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(5)
		var cv Cover
		for k := rng.Intn(10); k > 0; k-- {
			var lits []Literal
			for v := 0; v < nVars; v++ {
				switch rng.Intn(3) {
				case 0:
					lits = append(lits, lit(v, false))
				case 1:
					lits = append(lits, lit(v, true))
				}
			}
			c, _ := NewCube(lits...)
			cv = append(cv, c)
		}
		m := Minimize(cv)
		for pat := 0; pat < 1<<uint(nVars); pat++ {
			assign := make([]bool, nVars)
			for v := 0; v < nVars; v++ {
				assign[v] = pat>>uint(v)&1 == 1
			}
			if m.Eval(assign) != cv.Eval(assign) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
