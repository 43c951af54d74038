package core

import (
	"testing"

	"logicregression/internal/circuit"
	"logicregression/internal/eval"
	"logicregression/internal/oracle"
)

// multiOutGolden builds a circuit with several independent cones.
func multiOutGolden() *circuit.Circuit {
	c := circuit.New()
	var in []circuit.Signal
	for i := 0; i < 24; i++ {
		in = append(in, c.AddPI("w"+string(rune('a'+i%26))+string(rune('a'+i/26))))
	}
	for po := 0; po < 6; po++ {
		base := po * 4
		cone := c.Or(
			c.And(in[base], in[base+1]),
			c.Xor(in[base+2], c.And(in[base+3], in[(base+7)%24])),
		)
		c.AddPO("f"+string(rune('0'+po)), cone)
	}
	return c
}

func TestParallelLearnMatchesAccuracy(t *testing.T) {
	g := multiOutGolden()
	o := oracle.FromCircuit(g)

	seq := Learn(o, Options{Seed: 11})
	par := Learn(o, Options{Seed: 11, Parallel: 4})

	for name, res := range map[string]*Result{"sequential": seq, "parallel": par} {
		rep := eval.Measure(o, oracle.FromCircuit(res.Circuit), eval.Config{Patterns: 8000, Seed: 5})
		if rep.Accuracy != 1 {
			t.Fatalf("%s accuracy = %f (outputs %+v)", name, rep.Accuracy, res.Outputs)
		}
	}
	if par.Circuit.NumPO() != g.NumPO() {
		t.Fatalf("parallel PO count = %d", par.Circuit.NumPO())
	}
	// Output names and order must match the golden interface.
	for i, name := range g.PONames() {
		if par.Circuit.PONames()[i] != name {
			t.Fatalf("PO %d name %q, want %q", i, par.Circuit.PONames()[i], name)
		}
	}
}

func TestParallelLearnDeterministic(t *testing.T) {
	g := multiOutGolden()
	o := oracle.FromCircuit(g)
	r1 := Learn(o, Options{Seed: 12, Parallel: 3, DisableOptimization: true})
	r2 := Learn(o, Options{Seed: 12, Parallel: 3, DisableOptimization: true})
	if r1.SizeBeforeOpt != r2.SizeBeforeOpt {
		t.Fatalf("non-deterministic sizes: %d vs %d", r1.SizeBeforeOpt, r2.SizeBeforeOpt)
	}
	for i := range r1.Outputs {
		if r1.Outputs[i].Cubes != r2.Outputs[i].Cubes {
			t.Fatalf("output %d cubes differ across runs", i)
		}
	}
}

// A templateDesign has outputs the worker pool must leave alone: each is
// settled by a template before the pool starts.
type templateDesign struct {
	name     string
	golden   *circuit.Circuit
	opts     Options
	template map[int]Method // PO -> method
}

func templateDesigns() []templateDesign {
	// A comparator output next to a control cone the pool learns.
	mixed := circuit.New()
	a := mixed.AddPIWord("a", 6)
	b := mixed.AddPIWord("b", 6)
	extra := mixed.AddPI("sel")
	mixed.AddPO("lt", mixed.LtWords(a, b))
	mixed.AddPO("mix", mixed.And(extra, mixed.Xor(a[0], b[5])))

	// The 48-input parity of TestExtendedTemplatesLearnWideParity.
	parity := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < 48; i++ {
		sigs = append(sigs, parity.AddPI("p"+string(rune('a'+i%26))+string(rune('a'+i/26))))
	}
	parity.AddPO("parity", parity.XorTree(sigs))

	// An 8-bit adder: one linear match settles the whole bus.
	bus := circuit.New()
	bus.AddPOWord("res", bus.AddWords(bus.AddPIWord("lhs", 8), bus.AddPIWord("rhs", 8)))
	busMethods := make(map[int]Method)
	for i := 0; i < 8; i++ {
		busMethods[i] = MethodLinear
	}

	return []templateDesign{
		{"comparator", mixed, Options{Seed: 13}, map[int]Method{0: MethodComparator}},
		{"parity", parity, Options{Seed: 31, ExtendedTemplates: true, MaxTreeNodes: 50}, map[int]Method{0: MethodAffine}},
		{"adder", bus, Options{Seed: 21, ExtendedTemplates: true}, busMethods},
	}
}

func TestParallelLearnWithTemplatesMixed(t *testing.T) {
	// The parallel path must only take the non-template outputs: a
	// template output relearned by the pool costs queries and is thrown
	// away.
	for _, d := range templateDesigns() {
		o := oracle.FromCircuit(d.golden)
		seqOpts, parOpts := d.opts, d.opts
		parOpts.Parallel = 2
		seq, par := Learn(o, seqOpts), Learn(o, parOpts)
		for po, m := range d.template {
			if par.Outputs[po].Method != m {
				t.Fatalf("%s: output %d method = %s, want %s", d.name, po, par.Outputs[po].Method, m)
			}
		}
		if seq.Queries != par.Queries {
			t.Errorf("%s: %d queries at Parallel 2, %d sequential", d.name, par.Queries, seq.Queries)
		}
		rep := eval.Measure(o, oracle.FromCircuit(par.Circuit), eval.Config{Patterns: 8000, Seed: 6})
		if rep.Accuracy != 1 {
			t.Fatalf("%s: accuracy = %f", d.name, rep.Accuracy)
		}
	}
}
