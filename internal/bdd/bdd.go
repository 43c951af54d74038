// Package bdd implements reduced ordered binary decision diagrams with an
// ITE-based operation core and Minato-Morreale irredundant SOP extraction.
// In the optimization pipeline it plays the role of ABC's `collapse`
// command: small-support logic cones are collapsed into their canonical
// function and resynthesized from a compact cover.
//
// The core is map-free, in the CUDD/BuDDy style. Nodes are 12-byte
// (level, lo, hi) int32 triples appended to one slice, so a node's Ref is
// its creation index: numbering depends only on the sequence of operations.
// The unique table is an open-addressed array of node indices with linear
// probing, doubled whenever it is half full. The ITE computed table is a
// direct-mapped, lossy cache of (f, g, h) -> r entries with as many slots as
// the unique table: a colliding result overwrites the old one. An evicted
// entry only costs a recomputation, which walks nodes that already exist,
// so eviction never changes a returned Ref, the node numbering or where the
// node budget trips (mk checks the budget only when it creates a node).
package bdd

import (
	"errors"
	"fmt"
	"math"

	"logicregression/internal/aig"
	"logicregression/internal/sop"
)

// ErrBudget is returned when a construction exceeds the manager node budget.
var ErrBudget = errors.New("bdd: node budget exceeded")

// Ref is a BDD node reference. 0 is constant false, 1 is constant true.
type Ref = int

// Constant references.
const (
	False Ref = 0
	True  Ref = 1
)

// bnode is one node; terminals use level == manager.nvars.
type bnode struct {
	level  int32
	lo, hi int32
}

// iteEntry is one ITE cache slot. f is never a terminal in a stored entry,
// so the zero value (f == 0) marks an empty slot.
type iteEntry struct{ f, g, h, r int32 }

// minTableBits sizes the unique table and ITE cache of a new manager.
const minTableBits = 8

// Manager owns BDD nodes over a fixed variable count and order (variable i
// is at level i).
type Manager struct {
	nvars int
	nodes []bnode
	// unique holds the index of every non-terminal node at its probe slot;
	// 0 (the False terminal, never stored) marks an empty slot.
	unique []int32
	cache  []iteEntry
	// shift turns a 64-bit hash into a slot of unique or cache, which
	// always have the same power-of-two length.
	shift    uint
	maxNodes int
}

// NewManager creates a manager for nvars variables with a node budget
// (0 = default 1<<22).
func NewManager(nvars, maxNodes int) *Manager {
	if maxNodes <= 0 {
		maxNodes = 1 << 22
	}
	m := &Manager{
		nvars:    nvars,
		unique:   make([]int32, 1<<minTableBits),
		cache:    make([]iteEntry, 1<<minTableBits),
		shift:    64 - minTableBits,
		maxNodes: min(maxNodes, math.MaxInt32),
	}
	m.nodes = append(m.nodes,
		bnode{level: int32(nvars)}, // False
		bnode{level: int32(nvars)}, // True
	)
	return m
}

// NumNodes returns the allocated node count (including terminals).
func (m *Manager) NumNodes() int { return len(m.nodes) }

type budgetPanic struct{}

// hash3 mixes three int32 keys into 64 bits; the top bits pick the slot.
func hash3(a, b, c int32) uint64 {
	return ((uint64(uint32(a))*0x9E3779B97F4A7C15+uint64(uint32(b)))*0xBF58476D1CE4E5B9 +
		uint64(uint32(c))) * 0x94D049BB133111EB
}

func (m *Manager) mk(level, lo, hi int32) int32 {
	if lo == hi {
		return lo
	}
	mask := uint64(len(m.unique) - 1)
	i := hash3(level, lo, hi) >> m.shift
	for ; m.unique[i] != 0; i = (i + 1) & mask {
		r := m.unique[i]
		if n := m.nodes[r]; n.level == level && n.lo == lo && n.hi == hi {
			return r
		}
	}
	if len(m.nodes) >= m.maxNodes {
		panic(budgetPanic{})
	}
	r := int32(len(m.nodes))
	m.nodes = append(m.nodes, bnode{level: level, lo: lo, hi: hi})
	m.unique[i] = r
	if 2*len(m.nodes) > len(m.unique) {
		m.grow()
	}
	return r
}

// grow doubles the unique table and the ITE cache. The unique table is
// rebuilt from the node slice; the cache restarts empty.
func (m *Manager) grow() {
	m.shift--
	m.unique = make([]int32, 2*len(m.unique))
	m.cache = make([]iteEntry, len(m.unique))
	mask := uint64(len(m.unique) - 1)
	for r := 2; r < len(m.nodes); r++ {
		n := m.nodes[r]
		i := hash3(n.level, n.lo, n.hi) >> m.shift
		for m.unique[i] != 0 {
			i = (i + 1) & mask
		}
		m.unique[i] = int32(r)
	}
}

// Var returns the BDD of variable i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, m.nvars))
	}
	return Ref(m.mk(int32(i), 0, 1))
}

func (m *Manager) level(r Ref) int { return int(m.nodes[r].level) }

func (m *Manager) cofactors(r Ref, level int) (lo, hi Ref) {
	l, h := split(int32(r), m.nodes[r], int32(level))
	return Ref(l), Ref(h)
}

// ITE computes if-then-else(f, g, h).
func (m *Manager) ITE(f, g, h Ref) Ref { return Ref(m.ite(int32(f), int32(g), int32(h))) }

func (m *Manager) ite(f, g, h int32) int32 {
	switch {
	case f == 1:
		return g
	case f == 0:
		return h
	case g == h:
		return g
	case g == 1 && h == 0:
		return f
	}
	if e := m.cache[hash3(f, g, h)>>m.shift]; e.f == f && e.g == g && e.h == h {
		return e.r
	}
	nf, ng, nh := m.nodes[f], m.nodes[g], m.nodes[h]
	level := min(nf.level, ng.level, nh.level)
	f0, f1 := split(f, nf, level)
	g0, g1 := split(g, ng, level)
	h0, h1 := split(h, nh, level)
	lo := m.ite(f0, g0, h0)
	hi := m.ite(f1, g1, h1)
	r := m.mk(level, lo, hi)
	// The recursion may have grown the cache: hash again.
	m.cache[hash3(f, g, h)>>m.shift] = iteEntry{f: f, g: g, h: h, r: r}
	return r
}

// split returns the cofactors of node r (stored as n) at level.
func split(r int32, n bnode, level int32) (lo, hi int32) {
	if n.level != level {
		return r, r
	}
	return n.lo, n.hi
}

// Not returns the complement.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// And returns f AND g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, False) }

// Or returns f OR g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, True, g) }

// Xor returns f XOR g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Eval evaluates the function at a full assignment (len >= nvars).
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	for f != False && f != True {
		n := m.nodes[f]
		if assignment[n.level] {
			f = Ref(n.hi)
		} else {
			f = Ref(n.lo)
		}
	}
	return f == True
}

// Guard runs f and converts a node-budget overflow inside it into
// ErrBudget, so callers can keep using a manager for post-construction
// operations (Not, ISOP, ...) that may themselves allocate nodes.
func (m *Manager) Guard(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(budgetPanic); ok {
				err = ErrBudget
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

// FromAIGOutput builds the BDD of output po of an AIG, mapping PI i to
// variable i. It returns ErrBudget when the diagram exceeds the node budget.
func FromAIGOutput(g *aig.AIG, po int, maxNodes int) (m *Manager, root Ref, err error) {
	m = NewManager(g.NumPIs(), maxNodes)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(budgetPanic); ok {
				m, root, err = nil, False, ErrBudget
				return
			}
			panic(r)
		}
	}()
	memo := make(map[int]Ref)
	var build func(n int) Ref
	build = func(n int) Ref {
		if n == 0 {
			return False
		}
		if n <= g.NumPIs() {
			return m.Var(n - 1)
		}
		if r, ok := memo[n]; ok {
			return r
		}
		f0, f1 := g.Fanins(n)
		a := build(f0.Node())
		if f0.Compl() {
			a = m.Not(a)
		}
		b := build(f1.Node())
		if f1.Compl() {
			b = m.Not(b)
		}
		r := m.And(a, b)
		memo[n] = r
		return r
	}
	l := g.PO(po)
	root = build(l.Node())
	if l.Compl() {
		root = m.Not(root)
	}
	return m, root, nil
}

// FromTruthTable builds the BDD of a function given as a truth table over
// the listed variables: table[i] is f at the minterm whose bit j (of i)
// gives the value of vars[j]. vars must be strictly ascending (they become
// the BDD order top-down). len(table) must be 1<<len(vars).
func FromTruthTable(m *Manager, table []bool, vars []int) Ref {
	if len(table) != 1<<uint(len(vars)) {
		panic(fmt.Sprintf("bdd: table length %d for %d vars", len(table), len(vars)))
	}
	for j := 1; j < len(vars); j++ {
		if vars[j] <= vars[j-1] {
			panic("bdd: vars must be strictly ascending")
		}
	}
	return Ref(m.fromTT(table, 0, 1, vars))
}

// fromTT builds the subfunction at minterm indices off, off+stride,
// off+2*stride, ... of table, splitting on vars[0] (the topmost level): its
// vars[0]=0 half starts at off and its vars[0]=1 half at off+stride, each
// with twice the stride. The lo half is built before the hi half.
func (m *Manager) fromTT(table []bool, off, stride int, vars []int) int32 {
	if len(vars) == 0 {
		if table[off] {
			return 1
		}
		return 0
	}
	l := m.fromTT(table, off, 2*stride, vars[1:])
	h := m.fromTT(table, off+stride, 2*stride, vars[1:])
	return m.mk(int32(vars[0]), l, h)
}

// ISOP computes an irredundant sum-of-products cover of f using the
// Minato-Morreale procedure. Cube variables are BDD variable indices.
//
// Beware: some functions (parity chains) have small BDDs but exponential
// covers; use ISOPBounded when the input function is not known to be
// cover-friendly.
func (m *Manager) ISOP(f Ref) sop.Cover {
	st := &isopState{memo: make(map[[2]Ref]isopResult), maxCubes: -1}
	cover, _ := m.isop(f, f, st)
	return cover
}

// ISOPBounded is ISOP with a cube budget: it returns ErrBudget (and no
// cover) once more than maxCubes cubes would be produced, which protects
// callers from functions with compact BDDs but exponential covers.
func (m *Manager) ISOPBounded(f Ref, maxCubes int) (cover sop.Cover, err error) {
	st := &isopState{memo: make(map[[2]Ref]isopResult), maxCubes: maxCubes}
	err = m.Guard(func() {
		cover, _ = m.isop(f, f, st)
	})
	if err != nil {
		return nil, err
	}
	return cover, nil
}

type isopResult struct {
	cover sop.Cover
	fn    Ref
}

// isopState carries the memo table and the cube budget (-1 = unlimited).
type isopState struct {
	memo     map[[2]Ref]isopResult
	maxCubes int
	produced int
}

func (st *isopState) charge(n int) {
	if st.maxCubes < 0 {
		return
	}
	st.produced += n
	if st.produced > st.maxCubes {
		panic(budgetPanic{})
	}
}

// isop computes a cover C with L <= C <= U, returning the cover and the BDD
// of its function.
func (m *Manager) isop(L, U Ref, st *isopState) (sop.Cover, Ref) {
	if L == False {
		return nil, False
	}
	if U == True {
		st.charge(1)
		return sop.Cover{sop.Cube{}}, True
	}
	key := [2]Ref{L, U}
	if r, ok := st.memo[key]; ok {
		// Memo hits still produce cover copies downstream: charge them so
		// exponential cover assembly trips the budget even when the BDD
		// subproblem count stays small.
		st.charge(len(r.cover))
		return r.cover.Clone(), r.fn
	}
	level := min(m.level(L), m.level(U))
	L0, L1 := m.cofactors(L, level)
	U0, U1 := m.cofactors(U, level)

	// Cubes that must contain the negative literal of var `level`.
	Lneg := m.And(L0, m.Not(U1))
	c0, f0 := m.isop(Lneg, U0, st)
	// Cubes that must contain the positive literal.
	Lpos := m.And(L1, m.Not(U0))
	c1, f1 := m.isop(Lpos, U1, st)
	// Remainder covered by cubes free of var `level`.
	Lrem := m.Or(m.And(L0, m.Not(f0)), m.And(L1, m.Not(f1)))
	Urem := m.And(U0, U1)
	cd, fd := m.isop(Lrem, Urem, st)

	var cover sop.Cover
	for _, c := range c0 {
		cover = append(cover, c.With(sop.Literal{Var: level, Neg: true}))
	}
	for _, c := range c1 {
		cover = append(cover, c.With(sop.Literal{Var: level, Neg: false}))
	}
	cover = append(cover, cd...)

	x := m.Var(level)
	fn := m.Or(fd, m.Or(m.And(m.Not(x), f0), m.And(x, f1)))
	st.memo[key] = isopResult{cover: cover.Clone(), fn: fn}
	return cover, fn
}
