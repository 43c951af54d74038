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

// expandOneReference is expand as it was before the scratch arrays: fresh
// slices for every cube, a position slice per blocker. The reference for
// TestExpandAgainstMatchesReference.
func expandOneReference(c Cube, blockers Cover) Cube {
	if len(c) == 0 {
		return c
	}
	conflicts := make([][]int, 0, len(blockers))
	for _, b := range blockers {
		var pos []int
		i, j := 0, 0
		for i < len(c) && j < len(b) {
			switch {
			case c[i].Var < b[j].Var:
				i++
			case c[i].Var > b[j].Var:
				j++
			default:
				if c[i].Neg != b[j].Neg {
					pos = append(pos, i)
				}
				i++
				j++
			}
		}
		if len(pos) == 0 {
			return append(Cube(nil), c...)
		}
		conflicts = append(conflicts, pos)
	}
	cnt := make([]int, len(conflicts))
	singletonUses := make([]int, len(c))
	alive := make([][]int, len(c))
	for bi, pos := range conflicts {
		cnt[bi] = len(pos)
		for _, k := range pos {
			alive[k] = append(alive[k], bi)
		}
		if len(pos) == 1 {
			singletonUses[pos[0]]++
		}
	}
	droppedAt := make([]bool, len(c))
	for {
		dropped := false
		for k := 0; k < len(c); k++ {
			if droppedAt[k] || singletonUses[k] > 0 {
				continue
			}
			droppedAt[k] = true
			dropped = true
			for _, bi := range alive[k] {
				cnt[bi]--
				if cnt[bi] == 1 {
					for _, kk := range conflicts[bi] {
						if !droppedAt[kk] {
							singletonUses[kk]++
							break
						}
					}
				}
			}
		}
		if !dropped {
			break
		}
	}
	out := make(Cube, 0, len(c))
	for k, l := range c {
		if !droppedAt[k] {
			out = append(out, l)
		}
	}
	return out
}

// randomCube draws a cube over nVars with each variable bound with
// probability 1/2.
func randomCube(rng *rand.Rand, nVars int) Cube {
	var lits []Literal
	for v := 0; v < nVars; v++ {
		if rng.Intn(2) == 0 {
			lits = append(lits, Literal{Var: v, Neg: rng.Intn(2) == 0})
		}
	}
	c, _ := NewCube(lits...)
	return c
}

func TestExpandAgainstMatchesReference(t *testing.T) {
	// One scratch serves every cube of a call, so each case expands a whole
	// cover with it: partitions (where literals really drop) and random
	// covers and blockers, where some cubes already meet a blocker and
	// must come back unchanged in between cubes that expand.
	rng := rand.New(rand.NewSource(71))
	met := 0
	for trial := 0; trial < 400; trial++ {
		nVars := 2 + rng.Intn(9)
		var cover, blockers Cover
		if trial%2 == 0 {
			cover, blockers = randomPartition(rng, nVars)
		} else {
			for i := rng.Intn(12); i >= 0; i-- {
				cover = append(cover, randomCube(rng, nVars))
			}
			for i := rng.Intn(12); i >= 0; i-- {
				blockers = append(blockers, randomCube(rng, nVars))
			}
		}
		var s expandScratch
		want := make(Cover, 0, len(cover))
		for i, c := range cover {
			ref := expandOneReference(c, blockers)
			got := s.expand(c, blockers)
			if got.Key() != ref.Key() {
				t.Fatalf("trial %d cube %d %v against %v: got %v, want %v", trial, i, c, blockers, got, ref)
			}
			for _, b := range blockers {
				if len(c) > 0 && !conflicts(c, b) {
					met++
					break
				}
			}
			want = append(want, ref)
		}
		if got, w := ExpandAgainst(cover, blockers), Minimize(want); got.String() != w.String() {
			t.Fatalf("trial %d: ExpandAgainst = %v, want %v", trial, got, w)
		}
	}
	if met == 0 {
		t.Fatal("no cube met a blocker: the refusal path went untested")
	}
}

// conflicts reports whether cubes a and b bind some variable oppositely.
func conflicts(a, b Cube) bool {
	for _, l := range a {
		if m, ok := b.Has(l.Var); ok && m.Neg != l.Neg {
			return true
		}
	}
	return false
}
