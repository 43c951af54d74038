package check

import (
	"strings"
	"testing"

	"logicregression/internal/aig"
	"logicregression/internal/cases"
	"logicregression/internal/circuit"
)

// allGates builds a circuit exercising every gate type.
func allGates(t *testing.T) *circuit.Circuit {
	t.Helper()
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	s := c.AddPI("s")
	x := c.Xor(c.And(a, b), c.Or(a, b))
	y := c.Xnor(c.Nand(a, s), c.Nor(b, s))
	m := c.Or(c.And(s, x), c.And(c.NotGate(s), y)) // s ? x : y
	c.AddPO("m", m)
	c.AddPO("n", c.NotGate(m))
	c.AddPO("buf", c.BufGate(x))
	c.AddPO("k", c.And(c.Const(true), c.Const(false)))
	return c
}

func TestErrorFormat(t *testing.T) {
	// Node 0 is a valid node id and must be named in the message; only
	// negative ids mean "circuit-level violation".
	if got := (&Error{Node: 0, Msg: "boom"}).Error(); !strings.Contains(got, "node 0") {
		t.Errorf("Error{Node: 0} = %q, want it to mention node 0", got)
	}
	if got := (&Error{Node: -1, Msg: "boom"}).Error(); strings.Contains(got, "node") {
		t.Errorf("Error{Node: -1} = %q, want no node id", got)
	}
}

func TestVerifyAcceptsBuilderCircuits(t *testing.T) {
	if err := Verify(allGates(t)); err != nil {
		t.Fatalf("Verify rejected a builder-made circuit: %v", err)
	}
	for _, cs := range cases.All() {
		if err := Verify(cs.Circuit); err != nil {
			t.Errorf("%s: Verify rejected a built-in case: %v", cs.Name, err)
		}
	}
}

func TestVerifyViolations(t *testing.T) {
	pi := circuit.Node{Type: circuit.PI}
	tests := []struct {
		name    string
		c       *circuit.Circuit
		wantSub string
	}{
		{
			name: "fanin breaks topological order",
			c: circuit.FromNodes(
				[]circuit.Node{pi, {Type: circuit.And, In0: 0, In1: 2}, pi},
				[]string{"a", "b"}, []circuit.Signal{0, 2},
				[]string{"z"}, []circuit.Signal{1}),
			wantSub: "topological order",
		},
		{
			name: "fanin out of range",
			c: circuit.FromNodes(
				[]circuit.Node{pi, {Type: circuit.Not, In0: 9}},
				[]string{"a"}, []circuit.Signal{0},
				[]string{"z"}, []circuit.Signal{1}),
			wantSub: "topological order",
		},
		{
			name: "unknown gate type",
			c: circuit.FromNodes(
				[]circuit.Node{pi, {Type: circuit.GateType(99), In0: 0, In1: 0}},
				[]string{"a"}, []circuit.Signal{0},
				[]string{"z"}, []circuit.Signal{1}),
			wantSub: "unknown gate type",
		},
		{
			name: "duplicate constant",
			c: circuit.FromNodes(
				[]circuit.Node{{Type: circuit.Const1}, {Type: circuit.Const1}},
				nil, nil,
				[]string{"z"}, []circuit.Signal{1}),
			wantSub: "duplicate CONST1",
		},
		{
			// The first CONST0 sitting at node id 0 matters: the duplicate
			// detector must treat id 0 as "already seen", not as "unset".
			name: "duplicate CONST0 at node 0",
			c: circuit.FromNodes(
				[]circuit.Node{{Type: circuit.Const0}, {Type: circuit.Const0}},
				nil, nil,
				[]string{"z"}, []circuit.Signal{1}),
			wantSub: "duplicate CONST0",
		},
		{
			name: "unregistered PI node",
			c: circuit.FromNodes(
				[]circuit.Node{pi, pi},
				[]string{"a"}, []circuit.Signal{0},
				[]string{"z"}, []circuit.Signal{1}),
			wantSub: "not registered",
		},
		{
			name: "PI signal points at a gate",
			c: circuit.FromNodes(
				[]circuit.Node{pi, {Type: circuit.Not, In0: 0}},
				[]string{"a", "b"}, []circuit.Signal{0, 1},
				[]string{"z"}, []circuit.Signal{1}),
			wantSub: "has type NOT",
		},
		{
			name: "PI registered twice",
			c: circuit.FromNodes(
				[]circuit.Node{pi},
				[]string{"a", "b"}, []circuit.Signal{0, 0},
				[]string{"z"}, []circuit.Signal{0}),
			wantSub: "registered as both",
		},
		{
			name: "PO driver out of range",
			c: circuit.FromNodes(
				[]circuit.Node{pi},
				[]string{"a"}, []circuit.Signal{0},
				[]string{"z"}, []circuit.Signal{7}),
			wantSub: "out of range",
		},
		{
			name: "PO name count mismatch",
			c: circuit.FromNodes(
				[]circuit.Node{pi},
				[]string{"a"}, []circuit.Signal{0},
				[]string{"z", "extra"}, []circuit.Signal{0}),
			wantSub: "PO names",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := Verify(tc.c)
			if err == nil {
				t.Fatal("Verify accepted an invalid circuit")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Verify error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestVerifyAIG(t *testing.T) {
	g := aig.New([]string{"a", "b"})
	g.AddPO("z", g.And(g.PI(0), g.PI(1)))
	if err := VerifyAIG(g); err != nil {
		t.Fatalf("VerifyAIG rejected a valid graph: %v", err)
	}

	// Truncate below a registered PO leaves a dangling output edge.
	h := aig.New([]string{"a", "b"})
	mark := h.Mark()
	h.AddPO("z", h.And(h.PI(0), h.PI(1)))
	h.Truncate(mark)
	if err := VerifyAIG(h); err == nil {
		t.Fatal("VerifyAIG accepted a dangling PO edge")
	}
}

func TestAssertGating(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)

	good := allGates(t)
	bad := circuit.New()
	bad.AddPO("m", bad.AddPI("a")) // wrong arity vs good

	// Disabled: no panic even on a mismatch.
	Assert("noop", good, bad)

	SetEnabled(true)
	Assert("same", good, good) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("Assert did not panic on a non-equivalent circuit with checks enabled")
		}
	}()
	Assert("mismatch", good, bad)
}
