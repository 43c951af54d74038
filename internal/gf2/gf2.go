// Package gf2 implements linear algebra over GF(2) on bit-packed matrices:
// linear-system solving by Gaussian elimination. It backs the affine
// template family — functions of the form z = b ⊕ x_{i1} ⊕ ... ⊕ x_{ik} are
// exactly learnable from O(n) samples by solving a linear system, where
// sampling-based decision trees need exponential effort.
package gf2

// Row is a bit-packed row vector.
type Row []uint64

// NewRow returns an all-zero row of n bits.
func NewRow(n int) Row { return make(Row, (n+63)/64) }

// Get returns bit i.
func (r Row) Get(i int) bool { return r[i>>6]>>(uint(i)&63)&1 == 1 }

// Set sets bit i to v.
func (r Row) Set(i int, v bool) {
	if v {
		r[i>>6] |= 1 << (uint(i) & 63)
	} else {
		r[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Xor adds (XORs) other into r.
func (r Row) Xor(other Row) {
	for i := range r {
		r[i] ^= other[i]
	}
}

// Clone copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// IsZero reports whether every bit is 0.
func (r Row) IsZero() bool {
	for _, w := range r {
		if w != 0 {
			return false
		}
	}
	return true
}

// System is a linear system A·x = b over GF(2), built row by row.
type System struct {
	nVars int
	rows  []Row  // coefficient rows
	rhs   []bool // right-hand sides
}

// NewSystem creates a system over nVars unknowns.
func NewSystem(nVars int) *System { return &System{nVars: nVars} }

// AddEquation appends one equation; coeffs is copied.
func (s *System) AddEquation(coeffs Row, rhs bool) {
	s.rows = append(s.rows, coeffs.Clone())
	s.rhs = append(s.rhs, rhs)
}

// Solve runs Gaussian elimination. It returns a particular solution
// (consistent=true) or reports inconsistency. When the system is
// underdetermined, free variables are set to 0, yielding the solution with
// the fewest speculative terms.
func (s *System) Solve() (solution Row, consistent bool) {
	// Work on copies.
	rows := make([]Row, len(s.rows))
	rhs := make([]bool, len(s.rhs))
	for i := range rows {
		rows[i] = s.rows[i].Clone()
		rhs[i] = s.rhs[i]
	}

	pivotOfCol := make([]int, s.nVars)
	for i := range pivotOfCol {
		pivotOfCol[i] = -1
	}
	rank := 0
	for col := 0; col < s.nVars && rank < len(rows); col++ {
		// Find a pivot row.
		pivot := -1
		for r := rank; r < len(rows); r++ {
			if rows[r].Get(col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		rhs[rank], rhs[pivot] = rhs[pivot], rhs[rank]
		for r := 0; r < len(rows); r++ {
			if r != rank && rows[r].Get(col) {
				rows[r].Xor(rows[rank])
				rhs[r] = rhs[r] != rhs[rank]
			}
		}
		pivotOfCol[col] = rank
		rank++
	}
	// Inconsistency: a zero row with rhs 1.
	for r := rank; r < len(rows); r++ {
		if rhs[r] && rows[r].IsZero() {
			return nil, false
		}
	}
	solution = NewRow(s.nVars)
	for col := 0; col < s.nVars; col++ {
		if p := pivotOfCol[col]; p >= 0 && rhs[p] {
			solution.Set(col, true)
		}
	}
	return solution, true
}
