package bdd

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"logicregression/internal/aig"
	"logicregression/internal/cases"
	"logicregression/internal/sop"
)

// refManager is a map-based reference Manager that the flat tables must
// match node for node: a Go map as the unique table, a Go map as the ITE
// cache (it never evicts), and a truth-table build that copies both halves
// at every level.
type refManager struct {
	nvars    int
	nodes    []refNode
	unique   map[refNode]Ref
	iteCache map[[3]Ref]Ref
	maxNodes int
}

type refNode struct {
	level  int
	lo, hi Ref
}

func newRefManager(nvars, maxNodes int) *refManager {
	if maxNodes <= 0 {
		maxNodes = 1 << 22
	}
	m := &refManager{
		nvars:    nvars,
		unique:   make(map[refNode]Ref),
		iteCache: make(map[[3]Ref]Ref),
		maxNodes: maxNodes,
	}
	m.nodes = append(m.nodes, refNode{level: nvars}, refNode{level: nvars})
	return m
}

func (m *refManager) mk(level int, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	key := refNode{level: level, lo: lo, hi: hi}
	if r, ok := m.unique[key]; ok {
		return r
	}
	if len(m.nodes) >= m.maxNodes {
		panic(budgetPanic{})
	}
	m.nodes = append(m.nodes, key)
	r := Ref(len(m.nodes) - 1)
	m.unique[key] = r
	return r
}

func (m *refManager) Var(i int) Ref { return m.mk(i, False, True) }

func (m *refManager) level(r Ref) int { return m.nodes[r].level }

func (m *refManager) cofactors(r Ref, level int) (lo, hi Ref) {
	if m.nodes[r].level != level {
		return r, r
	}
	return m.nodes[r].lo, m.nodes[r].hi
}

func (m *refManager) ITE(f, g, h Ref) Ref {
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := [3]Ref{f, g, h}
	if r, ok := m.iteCache[key]; ok {
		return r
	}
	level := min(m.level(f), min(m.level(g), m.level(h)))
	f0, f1 := m.cofactors(f, level)
	g0, g1 := m.cofactors(g, level)
	h0, h1 := m.cofactors(h, level)
	lo := m.ITE(f0, g0, h0)
	hi := m.ITE(f1, g1, h1)
	r := m.mk(level, lo, hi)
	m.iteCache[key] = r
	return r
}

func (m *refManager) Not(f Ref) Ref    { return m.ITE(f, False, True) }
func (m *refManager) And(f, g Ref) Ref { return m.ITE(f, g, False) }
func (m *refManager) Or(f, g Ref) Ref  { return m.ITE(f, True, g) }
func (m *refManager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

func (m *refManager) guard(f func()) (err error) {
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

func refFromAIGOutput(g *aig.AIG, po int, maxNodes int) (m *refManager, root Ref, err error) {
	m = newRefManager(g.NumPIs(), maxNodes)
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
	err = m.guard(func() {
		l := g.PO(po)
		root = build(l.Node())
		if l.Compl() {
			root = m.Not(root)
		}
	})
	if err != nil {
		return nil, False, err
	}
	return m, root, nil
}

func (m *refManager) fromTT(table []bool, vars []int) Ref {
	if len(vars) == 0 {
		if table[0] {
			return True
		}
		return False
	}
	half := len(table) / 2
	lo := make([]bool, half)
	hi := make([]bool, half)
	for i := 0; i < half; i++ {
		lo[i] = table[2*i]
		hi[i] = table[2*i+1]
	}
	l := m.fromTT(lo, vars[1:])
	h := m.fromTT(hi, vars[1:])
	return m.mk(vars[0], l, h)
}

func (m *refManager) ISOPBounded(f Ref, maxCubes int) (cover sop.Cover, err error) {
	st := &isopState{memo: make(map[[2]Ref]isopResult), maxCubes: maxCubes}
	err = m.guard(func() {
		cover, _ = m.isop(f, f, st)
	})
	if err != nil {
		return nil, err
	}
	return cover, nil
}

func (m *refManager) isop(L, U Ref, st *isopState) (sop.Cover, Ref) {
	if L == False {
		return nil, False
	}
	if U == True {
		st.charge(1)
		return sop.Cover{sop.Cube{}}, True
	}
	key := [2]Ref{L, U}
	if r, ok := st.memo[key]; ok {
		st.charge(len(r.cover))
		return r.cover.Clone(), r.fn
	}
	level := min(m.level(L), m.level(U))
	L0, L1 := m.cofactors(L, level)
	U0, U1 := m.cofactors(U, level)

	Lneg := m.And(L0, m.Not(U1))
	c0, f0 := m.isop(Lneg, U0, st)
	Lpos := m.And(L1, m.Not(U0))
	c1, f1 := m.isop(Lpos, U1, st)
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

// sameNodes reports the first index where the two node arrays differ.
func sameNodes(m *Manager, r *refManager) error {
	if len(m.nodes) != len(r.nodes) {
		return fmt.Errorf("%d nodes, reference has %d", len(m.nodes), len(r.nodes))
	}
	for i, n := range m.nodes {
		w := r.nodes[i]
		if int(n.level) != w.level || Ref(n.lo) != w.lo || Ref(n.hi) != w.hi {
			return fmt.Errorf("node %d is (%d,%d,%d), reference has (%d,%d,%d)",
				i, n.level, n.lo, n.hi, w.level, w.lo, w.hi)
		}
	}
	return nil
}

// replayCached replays on m, in sorted order, every ITE triple the
// reference cached, and checks that each returns the reference's result
// without creating a node. It returns how many of the triples m's lossy
// cache no longer held, which the replay had to recompute.
func replayCached(m *Manager, r *refManager) (int, error) {
	keys := make([][3]Ref, 0, len(r.iteCache))
	for k := range r.iteCache {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	missing := 0
	for _, k := range keys {
		f, g, h := int32(k[0]), int32(k[1]), int32(k[2])
		if e := m.cache[hash3(f, g, h)>>m.shift]; e.f != f || e.g != g || e.h != h {
			missing++
		}
	}
	before := m.NumNodes()
	for _, k := range keys {
		if got, want := m.ITE(k[0], k[1], k[2]), r.iteCache[k]; got != want {
			return missing, fmt.Errorf("ITE%v = %d, reference cached %d", k, got, want)
		}
	}
	if m.NumNodes() != before {
		return missing, fmt.Errorf("replaying cached triples created %d nodes", m.NumNodes()-before)
	}
	return missing, nil
}

// isopPair extracts a cover of f on both managers, with ISOP when maxCubes
// is negative and ISOPBounded otherwise, and compares covers, errors and
// the node arrays afterwards.
func isopPair(m *Manager, r *refManager, f Ref, maxCubes int) error {
	var got sop.Cover
	var err error
	if maxCubes < 0 {
		err = m.Guard(func() { got = m.ISOP(f) })
	} else {
		got, err = m.ISOPBounded(f, maxCubes)
	}
	want, werr := r.ISOPBounded(f, maxCubes)
	if !errors.Is(err, werr) {
		return fmt.Errorf("ISOPBounded(%d, %d) err %v, reference %v", f, maxCubes, err, werr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("ISOPBounded(%d, %d) cover %v, reference %v", f, maxCubes, got, want)
	}
	return sameNodes(m, r)
}

// coverPair runs opt.Collapse's sequence on both managers: the cover of f,
// the complement of f under Guard, and the complement's cover.
func coverPair(m *Manager, r *refManager, f Ref, maxCubes int) error {
	if err := isopPair(m, r, f, maxCubes); err != nil {
		return fmt.Errorf("onset: %v", err)
	}
	var neg, wneg Ref
	err := m.Guard(func() { neg = m.Not(f) })
	werr := r.guard(func() { wneg = r.Not(f) })
	if !errors.Is(err, werr) || neg != wneg {
		return fmt.Errorf("Not = %d (%v), reference %d (%v)", neg, err, wneg, werr)
	}
	if err != nil {
		return nil
	}
	if err := isopPair(m, r, neg, maxCubes); err != nil {
		return fmt.Errorf("offset: %v", err)
	}
	return nil
}

// collapseBudget is opt's bddBudget, the budget the collapse pass builds
// every output under.
const collapseBudget = 100000

// TestReferenceAIGOutputs builds every output of every case circuit on both
// managers at three node budgets, then runs opt.Collapse's cover sequence
// on the result.
func TestReferenceAIGOutputs(t *testing.T) {
	evicted := 0
	for _, c := range cases.All() {
		g := aig.FromCircuit(c.Circuit)
		maxCubes := 4*g.NumAnds() + 1000
		for po := 0; po < g.NumPOs(); po++ {
			for _, budget := range []int{1 << 8, 1 << 12, collapseBudget} {
				where := fmt.Sprintf("%s po %d budget %d", c.Name, po, budget)
				m, root, err := FromAIGOutput(g, po, budget)
				r, want, werr := refFromAIGOutput(g, po, budget)
				if !errors.Is(err, werr) {
					t.Fatalf("%s: err %v, reference %v", where, err, werr)
				}
				if err != nil {
					continue
				}
				if root != want {
					t.Fatalf("%s: root %d, reference %d", where, root, want)
				}
				if err := sameNodes(m, r); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if err := coverPair(m, r, root, maxCubes); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if budget == collapseBudget && m.NumNodes() > 1<<12 {
					n, err := replayCached(m, r)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					evicted += n
				}
			}
		}
	}
	if evicted == 0 {
		t.Fatal("no output evicted an ITE cache entry")
	}
	t.Logf("%d ITE results recomputed after eviction", evicted)
}

// TestReferenceTruthTables builds random truth tables over sparse ascending
// variables, several per manager so later builds share earlier nodes, and
// extracts both covers, with and without a cube budget.
func TestReferenceTruthTables(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		nvars := 1 + rng.Intn(16)
		budget := []int{0, 1 << 6, 1 << 9}[trial%3]
		m, r := NewManager(nvars, budget), newRefManager(nvars, budget)
		for build := 0; build < 4; build++ {
			k := rng.Intn(min(nvars, 12) + 1)
			vars := rng.Perm(nvars)[:k]
			sort.Ints(vars)
			table := make([]bool, 1<<k)
			density := rng.Intn(5)
			for i := range table {
				table[i] = rng.Intn(4) < density
			}
			where := fmt.Sprintf("trial %d build %d (vars %v, budget %d)", trial, build, vars, budget)
			var root, want Ref
			err := m.Guard(func() { root = FromTruthTable(m, table, vars) })
			werr := r.guard(func() { want = r.fromTT(table, vars) })
			if !errors.Is(err, werr) || root != want {
				t.Fatalf("%s: root %d (%v), reference %d (%v)", where, root, err, want, werr)
			}
			if err := sameNodes(m, r); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if werr != nil {
				continue
			}
			for _, maxCubes := range []int{-1, 3, 40} {
				if err := coverPair(m, r, root, maxCubes); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
		}
	}
}

// TestReferenceRandomOps applies the same random And/Or/Xor/Not/ITE
// sequence to both managers, checking every result, budget error and node
// count; nodes are only appended, so equal final arrays mean every step
// created the same nodes.
func TestReferenceRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	evicted := 0
	for trial := 0; trial < 12; trial++ {
		nvars := 4 + rng.Intn(20)
		budget := []int{0, 1 << 8, 1 << 12}[trial%3]
		m, r := NewManager(nvars, budget), newRefManager(nvars, budget)
		pool := []Ref{False, True}
		for v := 0; v < nvars; v++ {
			pool = append(pool, m.Var(v))
			r.Var(v)
		}
		pick := func() Ref { return pool[rng.Intn(len(pool))] }
		for step := 0; step < 3000; step++ {
			op := rng.Intn(5)
			a, b, c := pick(), pick(), pick()
			var got, want Ref
			var err, werr error
			switch op {
			case 0:
				err = m.Guard(func() { got = m.And(a, b) })
				werr = r.guard(func() { want = r.And(a, b) })
			case 1:
				err = m.Guard(func() { got = m.Or(a, b) })
				werr = r.guard(func() { want = r.Or(a, b) })
			case 2:
				err = m.Guard(func() { got = m.Xor(a, b) })
				werr = r.guard(func() { want = r.Xor(a, b) })
			case 3:
				err = m.Guard(func() { got = m.Not(a) })
				werr = r.guard(func() { want = r.Not(a) })
			case 4:
				err = m.Guard(func() { got = m.ITE(a, b, c) })
				werr = r.guard(func() { want = r.ITE(a, b, c) })
			}
			if !errors.Is(err, werr) || got != want {
				t.Fatalf("trial %d step %d op %d(%d,%d,%d): %d (%v), reference %d (%v)",
					trial, step, op, a, b, c, got, err, want, werr)
			}
			if m.NumNodes() != len(r.nodes) {
				t.Fatalf("trial %d step %d: %d nodes, reference has %d", trial, step, m.NumNodes(), len(r.nodes))
			}
			if err == nil {
				pool = append(pool, got)
			}
		}
		if err := sameNodes(m, r); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n, err := replayCached(m, r)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		evicted += n
	}
	if evicted == 0 {
		t.Fatal("no sequence evicted an ITE cache entry")
	}
}
