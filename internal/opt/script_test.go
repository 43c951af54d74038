package opt

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"logicregression/internal/aig"
	"logicregression/internal/circuit"
)

func netlist(t *testing.T, c *circuit.Circuit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := circuit.WriteNetlist(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunScriptFirstPassWorksOnTheConversion(t *testing.T) {
	// z = (a AND b) OR (a AND b): the conversion to an AIG merges the two
	// copies, so a leading strash is a candidate of its own.
	c := circuit.New()
	a, b := c.AddPI("a"), c.AddPI("b")
	c.AddPO("z", c.Or(c.And(a, b), c.And(a, b)))
	g := aig.FromCircuit(c)
	for script, want := range map[string]*circuit.Circuit{
		"strash":  g.ToCircuit(),
		"rewrite": Rewrite(g).ToCircuit(),
	} {
		got, err := RunScript(c, script, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(netlist(t, got), netlist(t, want)) {
			t.Errorf("%q: got %d gates, want the pass on aig.FromCircuit(c) (%d gates)", script, got.Size(), want.Size())
		}
	}
	// With the deadline already passed, no pass runs, not even the first.
	if got, _ := RunScript(c, "strash", Config{Seed: 1, TimeLimit: time.Nanosecond}); got != c {
		t.Fatalf("expired deadline: got a %d-gate circuit, want c itself", got.Size())
	}
}

func TestRunScriptFraigIsFraigThenRewrite(t *testing.T) {
	// z = NOT(a AND b) AND a: no two nodes are equivalent, so only the
	// rewrite inside the fraig pass turns it into a AND NOT b.
	c := circuit.New()
	a, b := c.AddPI("a"), c.AddPI("b")
	c.AddPO("z", c.And(c.NotGate(c.And(a, b)), a))
	got, err := RunScript(c, "fraig", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 1 {
		t.Fatalf("fraig pass: %d gates, want 1", got.Size())
	}

	// Above maxFraigNodes the pass is skipped as a whole, rewrite too.
	big := circuit.New()
	chain := big.AddPI("x0")
	for i := 1; i <= maxFraigNodes; i++ {
		chain = big.And(chain, big.AddPI("x"+strconv.Itoa(i)))
	}
	big.AddPO("chain", chain)
	p, q := big.AddPI("p"), big.AddPI("q")
	big.AddPO("z", big.And(big.NotGate(big.And(p, q)), p))
	if got, _ := RunScript(big, "fraig", Config{Seed: 1}); got != big {
		t.Fatalf("fraig above maxFraigNodes: got a %d-gate circuit, want the input", got.Size())
	}
}

func TestRunScriptBalancesTheBestCircuit(t *testing.T) {
	// z = chain OR (chain AND y) is a 16-input AND chain. Collapse finds it
	// in 15 gates while the working AIG keeps 17 ANDs, so a balance pass
	// after collapse balances collapse's circuit and keeps it on the tie.
	c := circuit.New()
	chain := c.AddPI("x0")
	for i := 1; i < 16; i++ {
		chain = c.And(chain, c.AddPI("x"+strconv.Itoa(i)))
	}
	c.AddPO("z", c.Or(chain, c.And(chain, c.AddPI("y"))))
	cfg := Config{Seed: 1}
	best, err := RunScript(c, "strash; collapse", cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunScript(c, "strash; collapse; balance", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Balance(aig.FromCircuit(best)).ToCircuit()
	if want.Size() != best.Size() || !bytes.Equal(netlist(t, got), netlist(t, want)) {
		t.Fatalf("got %d gates, want collapse's %d balanced (%d gates)", got.Size(), best.Size(), want.Size())
	}
}
