// Package circuit implements gate-level Boolean networks made of 2-input
// primitive gates, the common representation shared by the black-box cases,
// the learner output, and the optimizer.
//
// A Circuit is a DAG stored in topological order: every gate's fanins have
// smaller node ids than the gate itself, which the builder API enforces by
// construction. Node ids are plain ints (type Signal) handed out by the Add*
// methods.
//
// Gate size follows the 2019 ICCAD contest convention: Size counts the
// 2-input primitive gates (AND, OR, XOR, NAND, NOR, XNOR); inverters and
// buffers are free wiring.
package circuit

import (
	"fmt"
	"sync"
)

// GateType enumerates node kinds.
type GateType uint8

// Node kinds. PI nodes carry no fanins; Const0/Const1 are the Boolean
// constants; Not and Buf are single-fanin; the rest are 2-input gates.
const (
	PI GateType = iota
	Const0
	Const1
	Not
	Buf
	And
	Or
	Xor
	Nand
	Nor
	Xnor
)

var gateNames = [...]string{
	PI: "PI", Const0: "CONST0", Const1: "CONST1", Not: "NOT", Buf: "BUF",
	And: "AND", Or: "OR", Xor: "XOR", Nand: "NAND", Nor: "NOR", Xnor: "XNOR",
}

func (g GateType) String() string {
	if int(g) < len(gateNames) {
		return gateNames[g]
	}
	return fmt.Sprintf("GateType(%d)", uint8(g))
}

// TwoInput reports whether the gate type takes two fanins.
func (g GateType) TwoInput() bool { return g >= And }

// Signal identifies a node in a Circuit.
type Signal = int

// Node is one vertex of the network.
type Node struct {
	Type GateType
	In0  Signal // first fanin (Not/Buf use only In0)
	In1  Signal // second fanin (2-input gates only)
}

// Circuit is a combinational Boolean network.
type Circuit struct {
	nodes   []Node
	pis     []Signal // node ids of primary inputs, in declaration order
	piNames []string
	pos     []Signal // driver node id per primary output
	poNames []string

	const0 Signal // lazily created constant nodes; -1 when absent
	const1 Signal
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{const0: -1, const1: -1}
}

// FromNodes assembles a circuit directly from a node list, PI registry, and
// PO bindings, bypassing the builder API's by-construction checks. It is the
// low-level constructor for tools that materialize circuits from external
// representations (deserializers, test harnesses, fuzzers); callers are
// responsible for validity — run check.Verify on anything assembled here
// before letting it into the pipeline.
func FromNodes(nodes []Node, piNames []string, pis []Signal, poNames []string, pos []Signal) *Circuit {
	c := &Circuit{
		nodes:   append([]Node(nil), nodes...),
		pis:     append([]Signal(nil), pis...),
		piNames: append([]string(nil), piNames...),
		pos:     append([]Signal(nil), pos...),
		poNames: append([]string(nil), poNames...),
		const0:  -1,
		const1:  -1,
	}
	for id, n := range c.nodes {
		switch n.Type {
		case Const0:
			if c.const0 < 0 {
				c.const0 = id
			}
		case Const1:
			if c.const1 < 0 {
				c.const1 = id
			}
		}
	}
	return c
}

// NumNodes returns the total node count (PIs, constants, and gates).
func (c *Circuit) NumNodes() int { return len(c.nodes) }

// NumPI returns the number of primary inputs.
func (c *Circuit) NumPI() int { return len(c.pis) }

// NumPO returns the number of primary outputs.
func (c *Circuit) NumPO() int { return len(c.pos) }

// PINames returns the primary input names in declaration order.
func (c *Circuit) PINames() []string { return append([]string(nil), c.piNames...) }

// PONames returns the primary output names in declaration order.
func (c *Circuit) PONames() []string { return append([]string(nil), c.poNames...) }

// PISignal returns the node id of the i-th primary input.
func (c *Circuit) PISignal(i int) Signal { return c.pis[i] }

// POSignal returns the driver node id of the i-th primary output.
func (c *Circuit) POSignal(i int) Signal { return c.pos[i] }

// Node returns the node with the given id.
func (c *Circuit) Node(id Signal) Node { return c.nodes[id] }

// AddPI appends a primary input with the given name and returns its signal.
func (c *Circuit) AddPI(name string) Signal {
	id := c.push(Node{Type: PI})
	c.pis = append(c.pis, id)
	c.piNames = append(c.piNames, name)
	return id
}

// AddPO declares a primary output named name driven by s.
func (c *Circuit) AddPO(name string, s Signal) {
	c.checkSignal(s)
	c.pos = append(c.pos, s)
	c.poNames = append(c.poNames, name)
}

// SetPODriver rebinds output i to a different driver signal. Logic feeding
// only the old driver becomes unreachable and stops counting toward Size.
func (c *Circuit) SetPODriver(i int, s Signal) {
	c.checkSignal(s)
	c.pos[i] = s
}

// Const returns the constant-b signal, creating the node on first use.
func (c *Circuit) Const(b bool) Signal {
	if b {
		if c.const1 < 0 {
			c.const1 = c.push(Node{Type: Const1})
		}
		return c.const1
	}
	if c.const0 < 0 {
		c.const0 = c.push(Node{Type: Const0})
	}
	return c.const0
}

func (c *Circuit) push(n Node) Signal {
	c.nodes = append(c.nodes, n)
	return len(c.nodes) - 1
}

func (c *Circuit) checkSignal(s Signal) {
	if s < 0 || s >= len(c.nodes) {
		panic(fmt.Sprintf("circuit: signal %d out of range [0,%d)", s, len(c.nodes)))
	}
}

func (c *Circuit) gate2(t GateType, a, b Signal) Signal {
	c.checkSignal(a)
	c.checkSignal(b)
	return c.push(Node{Type: t, In0: a, In1: b})
}

// And returns a AND b.
func (c *Circuit) And(a, b Signal) Signal { return c.gate2(And, a, b) }

// Or returns a OR b.
func (c *Circuit) Or(a, b Signal) Signal { return c.gate2(Or, a, b) }

// Xor returns a XOR b.
func (c *Circuit) Xor(a, b Signal) Signal { return c.gate2(Xor, a, b) }

// Nand returns NOT(a AND b).
func (c *Circuit) Nand(a, b Signal) Signal { return c.gate2(Nand, a, b) }

// Nor returns NOT(a OR b).
func (c *Circuit) Nor(a, b Signal) Signal { return c.gate2(Nor, a, b) }

// Xnor returns NOT(a XOR b).
func (c *Circuit) Xnor(a, b Signal) Signal { return c.gate2(Xnor, a, b) }

// NotGate returns NOT a.
func (c *Circuit) NotGate(a Signal) Signal {
	c.checkSignal(a)
	return c.push(Node{Type: Not, In0: a})
}

// BufGate returns a buffer of a.
func (c *Circuit) BufGate(a Signal) Signal {
	c.checkSignal(a)
	return c.push(Node{Type: Buf, In0: a})
}

// Size returns the number of 2-input primitive gates (the contest metric).
// Inverters, buffers, constants, and PIs are not counted. Only gates in the
// transitive fanin of some PO are counted; dangling gates do not exist in the
// contest netlist format and are excluded here for the same reason.
func (c *Circuit) Size() int {
	reach := c.reachable()
	n := 0
	for id, node := range c.nodes {
		if reach[id] && node.Type.TwoInput() {
			n++
		}
	}
	return n
}

// reachable marks nodes in the transitive fanin of any PO.
func (c *Circuit) reachable() []bool {
	mark := make([]bool, len(c.nodes))
	var stack []Signal
	for _, s := range c.pos {
		if !mark[s] {
			mark[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := c.nodes[id]
		switch {
		case n.Type == PI || n.Type == Const0 || n.Type == Const1:
		case n.Type.TwoInput():
			for _, f := range [2]Signal{n.In0, n.In1} {
				if !mark[f] {
					mark[f] = true
					stack = append(stack, f)
				}
			}
		default: // Not, Buf
			if !mark[n.In0] {
				mark[n.In0] = true
				stack = append(stack, n.In0)
			}
		}
	}
	return mark
}

// Eval evaluates the circuit on one full input assignment (one bool per PI,
// in PI declaration order) and returns one bool per PO.
func (c *Circuit) Eval(assignment []bool) []bool {
	if len(assignment) != len(c.pis) {
		panic(fmt.Sprintf("circuit: Eval got %d inputs, want %d", len(assignment), len(c.pis)))
	}
	in := make([]uint64, len(assignment))
	for i, b := range assignment {
		if b {
			in[i] = 1
		}
	}
	vals := c.simulateWord(in)
	out := make([]bool, len(c.pos))
	for i, s := range c.pos {
		out[i] = (*vals)[s]&1 == 1
	}
	wordScratch.Put(vals)
	return out
}

// EvalWords evaluates 64 patterns in parallel: inputs[i] holds 64 values of
// PI i (bit k = pattern k), and the result holds 64 values per PO.
func (c *Circuit) EvalWords(inputs []uint64) []uint64 {
	if len(inputs) != len(c.pis) {
		panic(fmt.Sprintf("circuit: EvalWords got %d inputs, want %d", len(inputs), len(c.pis)))
	}
	vals := c.simulateWord(inputs)
	out := make([]uint64, len(c.pos))
	for i, s := range c.pos {
		out[i] = (*vals)[s]
	}
	wordScratch.Put(vals)
	return out
}

// wordScratch recycles the node-value arrays of the one-word entry points
// (Eval, EvalWords, EvalSignalWords) across calls and circuits. In a
// topologically ordered circuit the kernel writes every node's word before
// reading it, so a recycled array needs no clearing (as with an Evaluator's
// scratch).
var wordScratch sync.Pool

// simulateWord runs the kernel on one word per PI in a pooled value array,
// which the caller returns to wordScratch when done with it.
func (c *Circuit) simulateWord(inputs []uint64) *[]uint64 {
	vals, _ := wordScratch.Get().(*[]uint64)
	if vals == nil {
		vals = new([]uint64)
	}
	if cap(*vals) < len(c.nodes) {
		*vals = make([]uint64, len(c.nodes))
	}
	*vals = (*vals)[:len(c.nodes)]
	c.simulate(inputs, 1, 0, 1, *vals)
	return vals
}

// kernelWords is the number of 64-pattern words the simulation kernel
// carries through one pass over the nodes: up to 1024 patterns per gate
// dispatch.
const kernelWords = 16

// Evaluator amortizes simulation scratch across repeated evaluations of the
// same circuit — the hot path of batched oracle queries, where a per-call
// value array would dominate. An Evaluator is not safe for concurrent use;
// create one per goroutine (or pool them). It tolerates the circuit growing
// between calls.
type Evaluator struct {
	c    *Circuit
	vals []uint64
}

// NewEvaluator returns an evaluator bound to c.
func (c *Circuit) NewEvaluator() *Evaluator { return &Evaluator{c: c} }

// EvalLanes evaluates a batch of 64*w patterns in lane layout: input lane i
// occupies patterns[i*w : (i+1)*w], bit k of a lane (word k/64, bit k%64)
// holding PI i in pattern k. It writes the PO lanes in the same layout into
// out, which must have length NumPO()*w. The batch is simulated
// kernelWords words at a time through the reused scratch.
//
//logicreg:hotpath
func (e *Evaluator) EvalLanes(patterns []uint64, w int, out []uint64) {
	c := e.c
	if w < 1 || len(patterns) != len(c.pis)*w {
		panic(fmt.Sprintf("circuit: EvalLanes got %d input words, want %d inputs x %d words", len(patterns), len(c.pis), w))
	}
	if len(out) != len(c.pos)*w {
		panic(fmt.Sprintf("circuit: EvalLanes got %d output words, want %d", len(out), len(c.pos)*w))
	}
	k := min(w, kernelWords)
	if len(e.vals) < len(c.nodes)*k {
		//logicreg:allow hotalloc amortized scratch growth, only when the circuit or the batch grew
		e.vals = make([]uint64, len(c.nodes)*k)
	}
	for b := 0; b < w; b += k {
		kb := min(k, w-b)
		vals := e.vals[:len(c.nodes)*kb]
		c.simulate(patterns, w, b, kb, vals)
		for j, s := range c.pos {
			copy(out[j*w+b:j*w+b+kb], vals[s*kb:s*kb+kb])
		}
	}
}

// EvalSignalWords evaluates 64 patterns in parallel and returns the value
// words of the requested internal signals (useful for probing logic during
// construction, before POs exist).
func (c *Circuit) EvalSignalWords(inputs []uint64, sigs ...Signal) []uint64 {
	if len(inputs) != len(c.pis) {
		panic(fmt.Sprintf("circuit: EvalSignalWords got %d inputs, want %d", len(inputs), len(c.pis)))
	}
	vals := c.simulateWord(inputs)
	out := make([]uint64, len(sigs))
	for i, s := range sigs {
		c.checkSignal(s)
		out[i] = (*vals)[s]
	}
	wordScratch.Put(vals)
	return out
}

// simulate is the word-parallel simulation kernel behind every Eval entry
// point: one type switch per node, then one word op per lane word, for k
// words (1 <= k <= kernelWords) of 64 patterns each. Scratch is
// node-major: node id's k words are vals[id*k : id*k+k]. PI i reads its k
// words from inputs[i*stride+off : i*stride+off+k], so one-word callers pass
// stride 1 and lane-layout callers the lane width. No allocation.
//
// The explicit guards restate the layout invariants (vals holds k words per
// node, every row is k words long) where the bounds-check eliminator — ours
// and the compiler's — can see them, so the per-word loads compile without
// implicit checks. Row slicing itself panics on a fanin out of range.
//
//logicreg:hotpath
func (c *Circuit) simulate(inputs []uint64, stride, off, k int, vals []uint64) {
	nodes := c.nodes
	if k < 1 || k > kernelWords || len(vals) != len(nodes)*k {
		panic(fmt.Sprintf("circuit: simulate got %d value words for %d nodes x %d words", len(vals), len(nodes), k))
	}
	for i, s := range c.pis {
		p := i*stride + off
		copy(vals[s*k:s*k+k], inputs[p:p+k])
	}
	for id, n := range nodes {
		d := vals[id*k : id*k+k : id*k+k]
		a := vals[n.In0*k : n.In0*k+k : n.In0*k+k]
		b := vals[n.In1*k : n.In1*k+k : n.In1*k+k]
		if len(a) != len(d) || len(b) != len(d) {
			panic("circuit: simulation rows of unequal width")
		}
		switch n.Type {
		case PI:
			// Loaded above.
		case Const0:
			for j := range d {
				d[j] = 0
			}
		case Const1:
			for j := range d {
				d[j] = ^uint64(0)
			}
		case Not:
			for j := range d {
				d[j] = ^a[j]
			}
		case Buf:
			for j := range d {
				d[j] = a[j]
			}
		case And:
			for j := range d {
				d[j] = a[j] & b[j]
			}
		case Or:
			for j := range d {
				d[j] = a[j] | b[j]
			}
		case Xor:
			for j := range d {
				d[j] = a[j] ^ b[j]
			}
		case Nand:
			for j := range d {
				d[j] = ^(a[j] & b[j])
			}
		case Nor:
			for j := range d {
				d[j] = ^(a[j] | b[j])
			}
		case Xnor:
			for j := range d {
				d[j] = ^(a[j] ^ b[j])
			}
		default:
			panic(fmt.Sprintf("circuit: unknown gate type %v", n.Type))
		}
	}
}

// StructuralSupport returns the indices (into the PI list) of primary inputs
// in the transitive fanin of output po.
func (c *Circuit) StructuralSupport(po int) []int {
	mark := make([]bool, len(c.nodes))
	var walk func(Signal)
	walk = func(id Signal) {
		if mark[id] {
			return
		}
		mark[id] = true
		n := c.nodes[id]
		switch {
		case n.Type == PI || n.Type == Const0 || n.Type == Const1:
		case n.Type.TwoInput():
			walk(n.In0)
			walk(n.In1)
		default:
			walk(n.In0)
		}
	}
	walk(c.pos[po])
	var sup []int
	for i, s := range c.pis {
		if mark[s] {
			sup = append(sup, i)
		}
	}
	return sup
}

// Stats summarizes a circuit for reports.
type Stats struct {
	PIs, POs  int
	Gates     int // 2-input gates (contest size)
	Inverters int
	Nodes     int
	Depth     int // longest PI->PO path counting 2-input gates
}

// Stats computes summary statistics.
func (c *Circuit) Stats() Stats {
	reach := c.reachable()
	st := Stats{PIs: len(c.pis), POs: len(c.pos), Nodes: len(c.nodes)}
	depth := make([]int, len(c.nodes))
	for id, n := range c.nodes {
		if !reach[id] {
			continue
		}
		switch {
		case n.Type == PI || n.Type == Const0 || n.Type == Const1:
		case n.Type.TwoInput():
			st.Gates++
			depth[id] = 1 + max(depth[n.In0], depth[n.In1])
		case n.Type == Not:
			st.Inverters++
			depth[id] = depth[n.In0]
		default:
			depth[id] = depth[n.In0]
		}
	}
	for _, s := range c.pos {
		if depth[s] > st.Depth {
			st.Depth = depth[s]
		}
	}
	return st
}

// CopyCone copies the logic cone driving output po of src into dst,
// mapping src's primary inputs positionally onto the given dst signals, and
// returns the copied driver signal. It is the primitive behind stitching
// independently-built subcircuits (per-output learning, collapse fallback)
// into one netlist.
func CopyCone(dst *Circuit, piSigs []Signal, src *Circuit, po int) Signal {
	if len(piSigs) != src.NumPI() {
		panic(fmt.Sprintf("circuit: CopyCone got %d pi signals for %d PIs", len(piSigs), src.NumPI()))
	}
	mapped := make(map[Signal]Signal)
	piIndex := make(map[Signal]int, src.NumPI())
	for i := 0; i < src.NumPI(); i++ {
		piIndex[src.PISignal(i)] = i
	}
	var walk func(s Signal) Signal
	walk = func(s Signal) Signal {
		if d, ok := mapped[s]; ok {
			return d
		}
		n := src.Node(s)
		var d Signal
		switch n.Type {
		case PI:
			d = piSigs[piIndex[s]]
		case Const0:
			d = dst.Const(false)
		case Const1:
			d = dst.Const(true)
		case Not:
			d = dst.NotGate(walk(n.In0))
		case Buf:
			d = dst.BufGate(walk(n.In0))
		default:
			a := walk(n.In0)
			b := walk(n.In1)
			switch n.Type {
			case And:
				d = dst.And(a, b)
			case Or:
				d = dst.Or(a, b)
			case Xor:
				d = dst.Xor(a, b)
			case Nand:
				d = dst.Nand(a, b)
			case Nor:
				d = dst.Nor(a, b)
			default:
				d = dst.Xnor(a, b)
			}
		}
		mapped[s] = d
		return d
	}
	return walk(src.POSignal(po))
}
