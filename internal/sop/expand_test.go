package sop

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomPartition splits the space over nVars recursively into labeled
// cubes, mimicking FBDT output.
func randomPartition(rng *rand.Rand, nVars int) (onset, offset Cover) {
	var split func(c Cube, depth int)
	split = func(c Cube, depth int) {
		if depth >= nVars || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				onset = append(onset, c)
			} else {
				offset = append(offset, c)
			}
			return
		}
		// Pick an unbound variable.
		v := -1
		for _, cand := range rng.Perm(nVars) {
			if _, bound := c.Has(cand); !bound {
				v = cand
				break
			}
		}
		if v < 0 {
			onset = append(onset, c)
			return
		}
		split(c.With(Literal{Var: v, Neg: true}), depth+1)
		split(c.With(Literal{Var: v, Neg: false}), depth+1)
	}
	split(nil, 0)
	return onset, offset
}

func TestExpandAgainstPreservesPartitionFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		nVars := 3 + rng.Intn(5)
		onset, offset := randomPartition(rng, nVars)
		expanded := ExpandAgainst(onset, offset)
		if len(expanded) > len(onset) {
			t.Fatalf("trial %d: expansion grew the cover %d -> %d",
				trial, len(onset), len(expanded))
		}
		for m := 0; m < 1<<uint(nVars); m++ {
			a := make([]bool, nVars)
			for v := 0; v < nVars; v++ {
				a[v] = m>>uint(v)&1 == 1
			}
			if expanded.Eval(a) != onset.Eval(a) {
				t.Fatalf("trial %d: function changed at %b\nonset %v\nexpanded %v",
					trial, m, onset, expanded)
			}
		}
	}
}

func TestExpandAgainstShrinksLiterals(t *testing.T) {
	// Partition of 3 vars: onset = {!a!b!c, !a!bc, !ab!c, !abc, a...}
	// A full one-sided subtree should expand to a single short cube.
	var onset, offset Cover
	for m := 0; m < 8; m++ {
		c, _ := NewCube(
			Literal{Var: 0, Neg: m&1 == 0},
			Literal{Var: 1, Neg: m>>1&1 == 0},
			Literal{Var: 2, Neg: m>>2&1 == 0},
		)
		if m&1 == 0 { // everything with a=0 is onset
			onset = append(onset, c)
		} else {
			offset = append(offset, c)
		}
	}
	got := ExpandAgainst(onset, offset)
	if len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("expanded = %v, want the single cube !x0", got)
	}
}

func TestExpandAgainstEmpty(t *testing.T) {
	if got := ExpandAgainst(nil, Cover{{}}); got != nil {
		t.Fatalf("empty cover expanded to %v", got)
	}
	// No blockers: everything expands to the constant-1 cube.
	c, _ := NewCube(Literal{Var: 0}, Literal{Var: 3, Neg: true})
	got := ExpandAgainst(Cover{c}, nil)
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("unblocked expansion = %v, want constant 1", got)
	}
}

func TestExpandAgainstNonPartitionIsSafe(t *testing.T) {
	// If a cover cube already intersects a blocker (not a partition), the
	// cube must be left untouched rather than widened unsoundly.
	a, _ := NewCube(Literal{Var: 0})
	b, _ := NewCube(Literal{Var: 1})
	got := ExpandAgainst(Cover{a}, Cover{b}) // x0 intersects x1
	if len(got) != 1 || got[0].Key() != a.Key() {
		t.Fatalf("non-partition input modified: %v", got)
	}
}

func TestQuickExpandEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 3 + rng.Intn(4)
		onset, offset := randomPartition(rng, nVars)
		expanded := ExpandAgainst(offset, onset) // expand the other side too
		for m := 0; m < 1<<uint(nVars); m++ {
			a := make([]bool, nVars)
			for v := 0; v < nVars; v++ {
				a[v] = m>>uint(v)&1 == 1
			}
			if expanded.Eval(a) != offset.Eval(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
