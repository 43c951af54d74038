// Package sop implements cubes and sum-of-products covers over integer
// variable ids, the intermediate function representation produced by the
// decision-tree learner (Sec. IV-D of the paper) before circuit synthesis.
//
// A Cube is a conjunction of literals with distinct variables, kept sorted by
// variable id. A Cover is a disjunction of cubes. Variables are indices into
// some external ordering (for the learner, primary-input indices).
package sop

import (
	"fmt"
	"sort"
	"strings"
)

// Literal is a possibly negated variable.
type Literal struct {
	Var int
	Neg bool
}

func (l Literal) String() string {
	if l.Neg {
		return fmt.Sprintf("!x%d", l.Var)
	}
	return fmt.Sprintf("x%d", l.Var)
}

// Cube is a conjunction of literals sorted by variable id with no duplicate
// variables. The empty cube is the constant-1 function.
type Cube []Literal

// NewCube builds a cube from literals, sorting them and rejecting duplicate
// variables (returns false on a duplicate, including contradictory pairs).
func NewCube(lits ...Literal) (Cube, bool) {
	c := append(Cube(nil), lits...)
	sort.Slice(c, func(i, j int) bool { return c[i].Var < c[j].Var })
	for i := 1; i < len(c); i++ {
		if c[i].Var == c[i-1].Var {
			return nil, false
		}
	}
	return c, true
}

// With returns a new cube extending c with literal l. It panics if l's
// variable is already bound: the decision tree never revisits a variable on a
// root-to-leaf path, so a rebind is a bug.
func (c Cube) With(l Literal) Cube {
	out := make(Cube, 0, len(c)+1)
	inserted := false
	for _, lit := range c {
		if lit.Var == l.Var {
			panic(fmt.Sprintf("sop: variable x%d already bound in cube %v", l.Var, c))
		}
		if !inserted && lit.Var > l.Var {
			out = append(out, l)
			inserted = true
		}
		out = append(out, lit)
	}
	if !inserted {
		out = append(out, l)
	}
	return out
}

// Has reports whether the cube binds variable v, and with which literal.
func (c Cube) Has(v int) (Literal, bool) {
	i := sort.Search(len(c), func(i int) bool { return c[i].Var >= v })
	if i < len(c) && c[i].Var == v {
		return c[i], true
	}
	return Literal{}, false
}

// Eval reports whether the assignment (indexed by variable id) satisfies the
// cube.
func (c Cube) Eval(assignment []bool) bool {
	for _, l := range c {
		if assignment[l.Var] == l.Neg {
			return false
		}
	}
	return true
}

// Apply forces the cube's literals into the assignment (in place).
func (c Cube) Apply(assignment []bool) {
	for _, l := range c {
		assignment[l.Var] = !l.Neg
	}
}

// Contains reports whether c's cube-set contains d's, i.e. every literal of c
// appears in d (c is the more general cube: c ⊇ d as point sets).
func (c Cube) Contains(d Cube) bool {
	i := 0
	for _, lc := range c {
		for i < len(d) && d[i].Var < lc.Var {
			i++
		}
		if i >= len(d) || d[i] != lc {
			return false
		}
	}
	return true
}

// MergeDistanceOne attempts the consensus merge of two cubes that differ in
// exactly one complemented literal and agree elsewhere; e.g. ab'c + abc = ac.
// Returns the merged cube and true on success.
func MergeDistanceOne(a, b Cube) (Cube, bool) {
	if len(a) != len(b) {
		return nil, false
	}
	diff := -1
	for i := range a {
		if a[i].Var != b[i].Var {
			return nil, false
		}
		if a[i].Neg != b[i].Neg {
			if diff >= 0 {
				return nil, false
			}
			diff = i
		}
	}
	if diff < 0 {
		return nil, false // identical cubes; caller handles duplicates
	}
	out := make(Cube, 0, len(a)-1)
	out = append(out, a[:diff]...)
	out = append(out, a[diff+1:]...)
	return out, true
}

func (c Cube) String() string {
	if len(c) == 0 {
		return "1"
	}
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return strings.Join(parts, "·")
}

// Key returns a canonical byte-string key for maps. Unlike String it avoids
// fmt formatting: minimization hashes millions of cubes.
func (c Cube) Key() string {
	buf := make([]byte, 0, len(c)*5)
	for _, l := range c {
		v := l.Var<<1 | btoi(l.Neg)
		for v >= 0x80 {
			buf = append(buf, byte(v)|0x80)
			v >>= 7
		}
		buf = append(buf, byte(v))
	}
	return string(buf)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// varsKey encodes just the variable set, ignoring phases.
func (c Cube) varsKey() string {
	buf := make([]byte, 0, len(c)*5)
	for _, l := range c {
		v := l.Var
		for v >= 0x80 {
			buf = append(buf, byte(v)|0x80)
			v >>= 7
		}
		buf = append(buf, byte(v))
	}
	return string(buf)
}

// phaseKey encodes the phases of a cube with literal position `skip`
// wildcarded (-1 for none).
func (c Cube) phaseKey(skip int) string {
	buf := make([]byte, (len(c)+7)/8)
	for i, l := range c {
		if i == skip {
			continue
		}
		if !l.Neg {
			buf[i>>3] |= 1 << uint(i&7)
		}
	}
	if skip >= 0 {
		// Disambiguate which position is wildcarded.
		buf = append(buf, byte(skip), byte(skip>>8))
	}
	return string(buf)
}

// Cover is a disjunction of cubes. The empty cover is the constant-0
// function.
type Cover []Cube

// Eval reports whether any cube is satisfied.
func (cv Cover) Eval(assignment []bool) bool {
	for _, c := range cv {
		if c.Eval(assignment) {
			return true
		}
	}
	return false
}

// Clone deep-copies the cover.
func (cv Cover) Clone() Cover {
	out := make(Cover, len(cv))
	for i, c := range cv {
		out[i] = append(Cube(nil), c...)
	}
	return out
}

// Minimize applies fast two-level reduction: duplicate removal and
// hash-accelerated distance-1 merging until fixpoint, then one absorption
// (single-cube containment) pass. It is the lightweight stand-in for an
// ESPRESSO pass on the learner's SOP before structural synthesis.
func Minimize(cv Cover) Cover {
	work := dedup(cv.Clone())
	for {
		merged, changed := mergePass(work)
		if !changed {
			break
		}
		work = dedup(merged)
	}
	return absorb(work)
}

func dedup(cv Cover) Cover {
	seen := make(map[string]bool, len(cv))
	out := cv[:0]
	for _, c := range cv {
		if k := c.Key(); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// absorb removes cubes contained in a more general cube.
func absorb(cv Cover) Cover {
	sort.Slice(cv, func(i, j int) bool {
		if len(cv[i]) != len(cv[j]) {
			return len(cv[i]) < len(cv[j])
		}
		return cv[i].Key() < cv[j].Key()
	})
	var out Cover
	for _, c := range cv {
		absorbed := false
		for _, kept := range out {
			if len(kept) >= len(c) {
				break // sorted: no shorter cubes follow
			}
			if kept.Contains(c) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			out = append(out, c)
		}
	}
	return out
}

// mergePass merges all disjoint distance-1 pairs in one sweep. Cubes can
// only merge when they bind the same variable set, so cubes are grouped by
// variable set and pairs are found by hashing phase vectors with one
// position wildcarded — O(total literals) instead of O(cubes^2).
func mergePass(cv Cover) (Cover, bool) {
	groups := make(map[string][]int, len(cv))
	for i, c := range cv {
		k := c.varsKey()
		groups[k] = append(groups[k], i)
	}
	used := make([]bool, len(cv))
	var out Cover
	changed := false
	// The greedy pairing below is order-sensitive (a cube pairs with the
	// first unused distance-1 partner), and so is the order merged cubes
	// land in out — walk the groups in sorted key order so the result is
	// identical run to run.
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		idxs := groups[k]
		if len(idxs) < 2 {
			continue
		}
		byPhase := make(map[string]int, len(idxs))
		for _, i := range idxs {
			byPhase[cv[i].phaseKey(-1)] = i
		}
		for _, i := range idxs {
			if used[i] {
				continue
			}
			c := cv[i]
			for pos := range c {
				// The distance-1 partner has the phase at pos flipped.
				flipped := c[pos]
				flipped.Neg = !flipped.Neg
				partnerKey := partnerPhaseKey(c, pos, flipped)
				j, ok := byPhase[partnerKey]
				if !ok || j == i || used[j] {
					continue
				}
				m, okm := MergeDistanceOne(c, cv[j])
				if !okm {
					continue
				}
				out = append(out, m)
				used[i], used[j] = true, true
				changed = true
				break
			}
		}
	}
	for i, c := range cv {
		if !used[i] {
			out = append(out, c)
		}
	}
	return out, changed
}

// partnerPhaseKey computes the phaseKey(-1) of c with literal pos replaced
// by flipped, without materializing the partner cube.
func partnerPhaseKey(c Cube, pos int, flipped Literal) string {
	buf := make([]byte, (len(c)+7)/8)
	for i, l := range c {
		neg := l.Neg
		if i == pos {
			neg = flipped.Neg
		}
		if !neg {
			buf[i>>3] |= 1 << uint(i&7)
		}
	}
	return string(buf)
}

func (cv Cover) String() string {
	if len(cv) == 0 {
		return "0"
	}
	parts := make([]string, len(cv))
	for i, c := range cv {
		parts[i] = c.String()
	}
	return strings.Join(parts, " + ")
}
