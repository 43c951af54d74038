package fbdt

import (
	"logicregression/internal/sop"
	"logicregression/internal/tt"
)

// This file extracts irredundant covers from bit-packed truth tables with
// the Minato-Morreale recursion (the form of ABC's Kit_TruthIsop): for
// bounds L <= U it finds a cover C with L <= C <= U by splitting on the
// first variable that L or U depends on, covering the cubes that need the
// negative literal, then those that need the positive one, then the rest.
//
// A table over k inputs has max(1, 2^k/64) words. Bit m of the table is the
// function at minterm m, and index bit k-1-b of m is input sup[b], so the
// smallest input is the top bit: splitting on it halves the table into two
// contiguous blocks. A table of fewer than six variables fills its word by
// repetition, as does every cofactor: a function that does not depend on
// index bit j is the same in both halves of every 2^(j+1)-bit block.

// tableISOP is the state of one cover extraction.
type tableISOP struct {
	sup   []int
	path  sop.Cube // literals of the enclosing splits, outermost first
	cover sop.Cover
	// arena holds the word temporaries of the multi-word levels as a
	// stack: a level takes its three blocks at top and gives them back.
	arena []uint64
	top   int
}

// isopCovers returns the irredundant covers of table and of its complement,
// cube for cube those of the BDD Minato-Morreale ISOP with the inputs in
// sup order. sup lists the table's inputs in strictly ascending order.
func isopCovers(table []uint64, sup []int) (onset, offset sop.Cover) {
	w := len(table)
	// Besides the complement and the result, the levels take 3h words each
	// for halves h <= w/2, w/4, ...: less than 3w in all.
	s := &tableISOP{sup: sup, path: make(sop.Cube, 0, len(sup)), arena: make([]uint64, 5*w)}
	comp, out := s.alloc(w), s.alloc(w)
	s.words(table, table, out, len(sup))
	onset, s.cover = s.cover, nil
	for i, x := range table {
		comp[i] = ^x
	}
	s.words(comp, comp, out, len(sup))
	return onset, s.cover
}

func (s *tableISOP) alloc(n int) []uint64 {
	b := s.arena[s.top : s.top+n : s.top+n]
	s.top += n
	return b
}

// emit appends the cube of the current split path to the cover.
func (s *tableISOP) emit() {
	cube := make(sop.Cube, len(s.path))
	copy(cube, s.path)
	s.cover = append(s.cover, cube)
}

// input returns the input at table index bit j.
func (s *tableISOP) input(j int) int { return s.sup[len(s.sup)-1-j] }

// words appends the cubes of a cover g with L <= g <= U to s.cover and
// writes g to out. L, U and out have max(1, 2^nv/64) words, and L and U
// depend on no index bit at or above nv.
func (s *tableISOP) words(L, U, out []uint64, nv int) {
	if nv <= 6 {
		out[0] = s.word(L[0], U[0], nv)
		return
	}
	if isConst(L, 0) {
		clear(out)
		return
	}
	if isConst(U, ^uint64(0)) {
		s.emit()
		fill(out, ^uint64(0))
		return
	}
	j := nv - 1
	for j >= 6 && !wordsDependOn(L, j) && !wordsDependOn(U, j) {
		j--
	}
	if j < 6 {
		// Every word is the same function of the in-word bits.
		fill(out, s.word(L[0], U[0], 6))
		return
	}
	h := 1 << (j - 6)
	L0, L1, U0, U1 := L[:h], L[h:2*h], U[:h], U[h:2*h]
	f0, f1 := out[:h], out[h:2*h]
	a, b, fd := s.alloc(h), s.alloc(h), s.alloc(h)
	for i := range a {
		a[i] = L0[i] &^ U1[i]
	}
	s.path = append(s.path, sop.Literal{Var: s.input(j), Neg: true})
	s.words(a, U0, f0, j)
	for i := range b {
		b[i] = L1[i] &^ U0[i]
	}
	s.path[len(s.path)-1].Neg = false
	s.words(b, U1, f1, j)
	s.path = s.path[:len(s.path)-1]
	for i := range a {
		a[i] = L0[i]&^f0[i] | L1[i]&^f1[i]
		b[i] = U0[i] & U1[i]
	}
	s.words(a, b, fd, j)
	for i, d := range fd {
		f0[i] |= d
		f1[i] |= d
	}
	for i := 2 * h; i < len(out); i += 2 * h {
		copy(out[i:i+2*h], out[:2*h])
	}
	s.top -= 3 * h
}

// word is words on one word, for index bits below nv <= 6.
func (s *tableISOP) word(L, U uint64, nv int) uint64 {
	if L == 0 {
		return 0
	}
	if U == ^uint64(0) {
		s.emit()
		return U
	}
	// L <= U and neither is constant, so one of them depends on a bit.
	j := nv - 1
	for !wordDependsOn(L, j) && !wordDependsOn(U, j) {
		j--
	}
	m, sh := uint64(tt.Var(j)), uint(1)<<j
	L0, L1 := wordCofactors(L, m, sh)
	U0, U1 := wordCofactors(U, m, sh)
	s.path = append(s.path, sop.Literal{Var: s.input(j), Neg: true})
	f0 := s.word(L0&^U1, U0, j)
	s.path[len(s.path)-1].Neg = false
	f1 := s.word(L1&^U0, U1, j)
	s.path = s.path[:len(s.path)-1]
	fd := s.word(L0&^f0|L1&^f1, U0&U1, j)
	return (f0|fd)&^m | (f1|fd)&m
}

// wordCofactors returns the cofactors of f at index bit j, each filling
// both halves; m is tt.Var(j) and sh is 1<<j.
func wordCofactors(f, m uint64, sh uint) (f0, f1 uint64) {
	f0, f1 = f&^m, f&m
	return f0 | f0<<sh, f1 | f1>>sh
}

// wordDependsOn reports whether f depends on index bit j < 6.
func wordDependsOn(f uint64, j int) bool {
	return (f>>(uint(1)<<j)^f)&^uint64(tt.Var(j)) != 0
}

// wordsDependOn reports whether f depends on index bit j >= 6, which
// selects the upper half of every block of 2^(j-5) words.
func wordsDependOn(f []uint64, j int) bool {
	h := 1 << (j - 6)
	for base := 0; base < len(f); base += 2 * h {
		for i := base; i < base+h; i++ {
			if f[i] != f[i+h] {
				return true
			}
		}
	}
	return false
}

func isConst(f []uint64, c uint64) bool {
	for _, x := range f {
		if x != c {
			return false
		}
	}
	return true
}

func fill(f []uint64, c uint64) {
	for i := range f {
		f[i] = c
	}
}
