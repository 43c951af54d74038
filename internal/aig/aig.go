// Package aig implements And-Inverter Graphs with complemented edges and
// structural hashing, the intermediate representation of the circuit
// optimization step (the stand-in for ABC's strashed network, Sec. IV-E).
package aig

import (
	"fmt"

	"logicregression/internal/circuit"
)

// Lit is an AIG edge: node index shifted left once, LSB = complemented.
// Node 0 is the constant-false node, so False = Lit(0) and True = Lit(1).
type Lit uint32

// Constant edges.
const (
	False Lit = 0
	True  Lit = 1
)

// MkLit builds an edge to node with optional complementation.
func MkLit(node int, compl bool) Lit {
	l := Lit(node) << 1
	if compl {
		l |= 1
	}
	return l
}

// Node returns the edge's target node index.
func (l Lit) Node() int { return int(l >> 1) }

// Compl reports whether the edge is complemented.
func (l Lit) Compl() bool { return l&1 == 1 }

// Not complements the edge.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Compl() {
		return fmt.Sprintf("~n%d", l.Node())
	}
	return fmt.Sprintf("n%d", l.Node())
}

type node struct {
	fan0, fan1 Lit // valid only for AND nodes (node > numPIs)
}

// AIG is a structurally hashed and-inverter graph. Node 0 is constant
// false; nodes 1..NumPIs are primary inputs; the rest are AND nodes in
// topological order.
type AIG struct {
	nodes   []node
	numPIs  int
	piNames []string
	pos     []Lit
	poNames []string
	strash  map[[2]Lit]int
}

// New returns an AIG with n primary inputs named by names (len must equal n,
// or nil for default names).
func New(piNames []string) *AIG {
	g := &AIG{strash: make(map[[2]Lit]int)}
	g.nodes = append(g.nodes, node{}) // constant node 0
	for _, name := range piNames {
		g.nodes = append(g.nodes, node{})
		g.piNames = append(g.piNames, name)
		g.numPIs++
	}
	return g
}

// NumPIs returns the primary input count.
func (g *AIG) NumPIs() int { return g.numPIs }

// NumNodes returns the total node count including constant and PIs.
func (g *AIG) NumNodes() int { return len(g.nodes) }

// PI returns the edge to the i-th primary input (0-based).
func (g *AIG) PI(i int) Lit {
	if i < 0 || i >= g.numPIs {
		panic(fmt.Sprintf("aig: PI %d out of range [0,%d)", i, g.numPIs))
	}
	return MkLit(i+1, false)
}

// PINames returns the input names.
func (g *AIG) PINames() []string { return append([]string(nil), g.piNames...) }

// PONames returns the output names.
func (g *AIG) PONames() []string { return append([]string(nil), g.poNames...) }

// NumPOs returns the primary output count.
func (g *AIG) NumPOs() int { return len(g.pos) }

// PO returns the i-th output edge.
func (g *AIG) PO(i int) Lit { return g.pos[i] }

// AddPO registers an output.
func (g *AIG) AddPO(name string, l Lit) {
	g.pos = append(g.pos, l)
	g.poNames = append(g.poNames, name)
}

// IsAnd reports whether n is an AND node.
func (g *AIG) IsAnd(n int) bool { return n > g.numPIs }

// Fanins returns the fanin edges of AND node n.
func (g *AIG) Fanins(n int) (Lit, Lit) {
	if !g.IsAnd(n) {
		panic(fmt.Sprintf("aig: node %d is not an AND", n))
	}
	return g.nodes[n].fan0, g.nodes[n].fan1
}

// And returns an edge computing a AND b, applying constant folding,
// idempotence/complement rules, and structural hashing.
func (g *AIG) And(a, b Lit) Lit {
	if a > b {
		a, b = b, a
	}
	switch {
	case a == False:
		return False
	case a == True:
		return b
	case a == b:
		return a
	case a == b.Not():
		return False
	}
	key := [2]Lit{a, b}
	if n, ok := g.strash[key]; ok {
		return MkLit(n, false)
	}
	g.nodes = append(g.nodes, node{fan0: a, fan1: b})
	n := len(g.nodes) - 1
	g.strash[key] = n
	return MkLit(n, false)
}

// Or returns a OR b.
func (g *AIG) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a XOR b.
func (g *AIG) Xor(a, b Lit) Lit {
	return g.And(g.And(a, b.Not()).Not(), g.And(a.Not(), b).Not()).Not()
}

// NumAnds returns the number of AND nodes reachable from the outputs.
func (g *AIG) NumAnds() int {
	mark := g.markReachable()
	n := 0
	for i := g.numPIs + 1; i < len(g.nodes); i++ {
		if mark[i] {
			n++
		}
	}
	return n
}

func (g *AIG) markReachable() []bool {
	mark := make([]bool, len(g.nodes))
	var stack []int
	for _, po := range g.pos {
		if n := po.Node(); !mark[n] {
			mark[n] = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !g.IsAnd(n) {
			continue
		}
		for _, f := range [2]Lit{g.nodes[n].fan0, g.nodes[n].fan1} {
			if fn := f.Node(); !mark[fn] {
				mark[fn] = true
				stack = append(stack, fn)
			}
		}
	}
	return mark
}

// SimWords simulates 64 parallel patterns: in[i] is the word of PI i.
// It returns the value word of every node; index by Lit.Node() and
// complement per Lit.Compl().
func (g *AIG) SimWords(in []uint64) []uint64 {
	if len(in) != g.numPIs {
		panic(fmt.Sprintf("aig: SimWords got %d inputs, want %d", len(in), g.numPIs))
	}
	vals := make([]uint64, len(g.nodes))
	vals[0] = 0
	copy(vals[1:1+g.numPIs], in)
	for n := g.numPIs + 1; n < len(g.nodes); n++ {
		vals[n] = litWord(vals, g.nodes[n].fan0) & litWord(vals, g.nodes[n].fan1)
	}
	return vals
}

func litWord(vals []uint64, l Lit) uint64 {
	w := vals[l.Node()]
	if l.Compl() {
		return ^w
	}
	return w
}

// EvalPOs simulates and returns one word per output.
func (g *AIG) EvalPOs(in []uint64) []uint64 {
	vals := g.SimWords(in)
	out := make([]uint64, len(g.pos))
	for i, po := range g.pos {
		out[i] = litWord(vals, po)
	}
	return out
}

// FromCircuit converts a gate-level circuit into a strashed AIG.
func FromCircuit(c *circuit.Circuit) *AIG {
	g := New(c.PINames())
	names := c.PONames()
	for i, l := range g.AddCircuit(c) {
		g.AddPO(names[i], l)
	}
	return g
}

// AddCircuit strashes circuit c into g, whose PIs stand for c's PIs in
// order, and returns the edges of c's outputs. It adds no POs, so several
// circuits can share one AIG, as an equivalence miter's two sides do.
func (g *AIG) AddCircuit(c *circuit.Circuit) []Lit {
	lits := make([]Lit, c.NumNodes())
	pi := 0
	for id := 0; id < c.NumNodes(); id++ {
		n := c.Node(id)
		switch n.Type {
		case circuit.PI:
			lits[id] = g.PI(pi)
			pi++
		case circuit.Const0:
			lits[id] = False
		case circuit.Const1:
			lits[id] = True
		case circuit.Not:
			lits[id] = lits[n.In0].Not()
		case circuit.Buf:
			lits[id] = lits[n.In0]
		case circuit.And:
			lits[id] = g.And(lits[n.In0], lits[n.In1])
		case circuit.Or:
			lits[id] = g.Or(lits[n.In0], lits[n.In1])
		case circuit.Xor:
			lits[id] = g.Xor(lits[n.In0], lits[n.In1])
		case circuit.Nand:
			lits[id] = g.And(lits[n.In0], lits[n.In1]).Not()
		case circuit.Nor:
			lits[id] = g.Or(lits[n.In0], lits[n.In1]).Not()
		case circuit.Xnor:
			lits[id] = g.Xor(lits[n.In0], lits[n.In1]).Not()
		default:
			panic(fmt.Sprintf("aig: unknown gate %v", n.Type))
		}
	}
	out := make([]Lit, c.NumPO())
	for i := range out {
		out[i] = lits[c.POSignal(i)]
	}
	return out
}

// ToCircuit converts the AIG back to a gate-level circuit of ANDs and NOTs.
func (g *AIG) ToCircuit() *circuit.Circuit {
	c := circuit.New()
	sig := make([]circuit.Signal, len(g.nodes))
	neg := make([]circuit.Signal, len(g.nodes)) // cached complements; -1 = absent
	for i := range neg {
		neg[i] = -1
	}
	sig[0] = c.Const(false)
	for i := 0; i < g.numPIs; i++ {
		sig[i+1] = c.AddPI(g.piNames[i])
	}
	mark := g.markReachable()
	edge := func(l Lit) circuit.Signal {
		n := l.Node()
		if !l.Compl() {
			return sig[n]
		}
		if n == 0 {
			// Complemented constant edge: emit CONST1 directly instead of
			// NOT(CONST0), which every lint pass would flag as a constant
			// fanin gate.
			return c.Const(true)
		}
		if neg[n] < 0 {
			neg[n] = c.NotGate(sig[n])
		}
		return neg[n]
	}
	for n := g.numPIs + 1; n < len(g.nodes); n++ {
		if !mark[n] {
			continue
		}
		sig[n] = c.And(edge(g.nodes[n].fan0), edge(g.nodes[n].fan1))
	}
	for i, po := range g.pos {
		c.AddPO(g.poNames[i], edge(po))
	}
	return c
}

// Mark returns a checkpoint for Truncate: the current node count.
func (g *AIG) Mark() int { return len(g.nodes) }

// Truncate removes every node created after the given Mark checkpoint,
// including their structural-hash entries. POs and external references to
// truncated nodes become invalid; callers use Mark/Truncate for trial
// construction (build a candidate, measure it, roll back).
func (g *AIG) Truncate(mark int) {
	if mark < g.numPIs+1 {
		panic("aig: cannot truncate below the PI nodes")
	}
	for n := mark; n < len(g.nodes); n++ {
		delete(g.strash, [2]Lit{g.nodes[n].fan0, g.nodes[n].fan1})
	}
	g.nodes = g.nodes[:mark]
}

// NoSubst marks a node without substitution in Rebuild's map.
const NoSubst Lit = ^Lit(0)

// NewSubstMap allocates a substitution map for Rebuild with every node
// unsubstituted.
func (g *AIG) NewSubstMap() []Lit {
	m := make([]Lit, len(g.nodes))
	for i := range m {
		m[i] = NoSubst
	}
	return m
}

// Rebuild reconstructs the AIG bottom-up with fresh structural hashing,
// applying the substitution map subst (old node -> replacement edge in the
// OLD graph's numbering; NoSubst keeps the node; nil map = pure restrash).
// Unreachable logic is dropped. It returns the new graph.
func (g *AIG) Rebuild(subst []Lit) *AIG {
	out := New(g.piNames)
	m := make([]Lit, len(g.nodes)) // old node -> new edge
	m[0] = False
	for i := 0; i < g.numPIs; i++ {
		m[i+1] = out.PI(i)
	}
	resolve := func(l Lit) Lit {
		nl := m[l.Node()]
		if l.Compl() {
			nl = nl.Not()
		}
		return nl
	}
	for n := g.numPIs + 1; n < len(g.nodes); n++ {
		if subst != nil && subst[n] != NoSubst {
			// Substitution edges refer to OLD nodes; map through m.
			s := subst[n]
			ns := m[s.Node()]
			if s.Compl() {
				ns = ns.Not()
			}
			m[n] = ns
			continue
		}
		m[n] = out.And(resolve(g.nodes[n].fan0), resolve(g.nodes[n].fan1))
	}
	for i, po := range g.pos {
		out.AddPO(g.poNames[i], resolve(po))
	}
	return out
}
