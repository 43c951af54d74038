package core

import (
	"testing"

	"logicregression/internal/circuit"
	"logicregression/internal/eval"
	"logicregression/internal/oracle"
)

func TestExtendedTemplatesOffByDefault(t *testing.T) {
	const w = 4
	g := circuit.New()
	a := g.AddPIWord("lhs", w)
	b := g.AddPIWord("rhs", w)
	z := make(circuit.Word, w)
	for i := range z {
		z[i] = g.Xor(a[i], b[i])
	}
	g.AddPOWord("res", z)
	o := oracle.FromCircuit(g)

	res := Learn(o, Options{Seed: 22})
	for _, or := range res.Outputs {
		if or.Method == MethodAffine {
			t.Fatalf("affine method used with extensions off: %+v", or)
		}
	}
	// Still must be exact (each lane has support 2: exhaustive path).
	rep := eval.Measure(o, oracle.FromCircuit(res.Circuit), eval.Config{Patterns: 6000, Seed: 2})
	if rep.Accuracy != 1 {
		t.Fatalf("accuracy = %f", rep.Accuracy)
	}
}

func TestLinearAdderSharedAcrossBits(t *testing.T) {
	// All bits of one LinMatch must share a single synthesized adder; the
	// learned circuit for a 6-bit adder should stay well under 6 separate
	// adder copies.
	const w = 6
	g := circuit.New()
	a := g.AddPIWord("x", w)
	b := g.AddPIWord("y", w)
	g.AddPOWord("s", g.AddWords(a, b))
	o := oracle.FromCircuit(g)
	res := Learn(o, Options{Seed: 23, DisableOptimization: true})
	if res.TemplateMatches != w {
		t.Fatalf("TemplateMatches = %d", res.TemplateMatches)
	}
	// One ripple adder is ~5 gates/bit; six copies would be ~180.
	if res.SizeBeforeOpt > 60 {
		t.Fatalf("pre-opt size = %d; adder not shared", res.SizeBeforeOpt)
	}
}

func TestLearnPreservesPortNamesAndOrder(t *testing.T) {
	g := circuit.New()
	a := g.AddPI("alpha")
	b := g.AddPI("beta")
	g.AddPO("second", g.And(a, b))
	g.AddPO("first", g.Or(a, b))
	o := oracle.FromCircuit(g)
	res := Learn(o, Options{Seed: 24})
	if got := res.Circuit.PINames(); got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("PI names = %v", got)
	}
	if got := res.Circuit.PONames(); got[0] != "second" || got[1] != "first" {
		t.Fatalf("PO names = %v", got)
	}
}

func TestExtendedTemplatesLearnWideParity(t *testing.T) {
	// 48-input parity: unlearnable by the paper pipeline (tree truncates at
	// ~50% accuracy), exactly learnable by the affine extension.
	g := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < 48; i++ {
		sigs = append(sigs, g.AddPI("p"+string(rune('a'+i%26))+string(rune('a'+i/26))))
	}
	g.AddPO("parity", g.XorTree(sigs))
	o := oracle.FromCircuit(g)

	res := Learn(o, Options{Seed: 31, ExtendedTemplates: true, MaxTreeNodes: 50})
	if res.Outputs[0].Method != MethodAffine {
		t.Fatalf("method = %s, want template-affine", res.Outputs[0].Method)
	}
	rep := eval.Measure(o, oracle.FromCircuit(res.Circuit), eval.Config{Patterns: 20000, Seed: 7})
	if rep.Accuracy != 1 {
		t.Fatalf("accuracy = %f", rep.Accuracy)
	}
	if res.Size > 60 {
		t.Fatalf("parity circuit size = %d, want ~47 XORs", res.Size)
	}

	// Control: the paper pipeline alone cannot do this.
	plain := Learn(o, Options{Seed: 31, MaxTreeNodes: 50})
	repPlain := eval.Measure(o, oracle.FromCircuit(plain.Circuit), eval.Config{Patterns: 20000, Seed: 7})
	if repPlain.Accuracy > 0.9 {
		t.Fatalf("plain pipeline accuracy = %f; parity control broken", repPlain.Accuracy)
	}
}
