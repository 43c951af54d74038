package core

import (
	"testing"
	"time"

	"logicregression/internal/circuit"
	"logicregression/internal/eval"
	"logicregression/internal/oracle"
)

// learnAndMeasure runs the full pipeline and measures accuracy.
func learnAndMeasure(t *testing.T, golden *circuit.Circuit, opts Options, patterns int) (*Result, eval.Report) {
	t.Helper()
	o := oracle.FromCircuit(golden)
	res := Learn(o, opts)
	if res.Circuit.NumPI() != golden.NumPI() || res.Circuit.NumPO() != golden.NumPO() {
		t.Fatalf("arity mismatch: learned %d/%d, golden %d/%d",
			res.Circuit.NumPI(), res.Circuit.NumPO(), golden.NumPI(), golden.NumPO())
	}
	rep := eval.Measure(o, oracle.FromCircuit(res.Circuit), eval.Config{Patterns: patterns, Seed: 999})
	return res, rep
}

func TestLearnSmallControlLogic(t *testing.T) {
	// An ECO-flavoured function: two outputs over 10 inputs, small support.
	g := circuit.New()
	var in []circuit.Signal
	for i := 0; i < 10; i++ {
		in = append(in, g.AddPI("pin"+string(rune('a'+i))))
	}
	g.AddPO("f", g.Or(g.And(in[0], in[3]), g.And(in[5], g.NotGate(in[7]))))
	g.AddPO("g", g.Xor(in[2], g.And(in[4], in[6])))

	res, rep := learnAndMeasure(t, g, Options{Seed: 1}, 6000)
	if rep.Accuracy != 1 {
		t.Fatalf("accuracy = %f, want 1.0 (report: %+v)", rep.Accuracy, res.Outputs)
	}
	for _, or := range res.Outputs {
		if or.Method != MethodExhaustive {
			t.Fatalf("output %s method = %s, want exhaustive", or.Name, or.Method)
		}
	}
	if res.Queries == 0 || res.Size == 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestLearnComparatorViaTemplate(t *testing.T) {
	g := circuit.New()
	a := g.AddPIWord("a", 8)
	b := g.AddPIWord("b", 8)
	g.AddPO("lt", g.LtWords(a, b))

	res, rep := learnAndMeasure(t, g, Options{Seed: 2}, 6000)
	if rep.Accuracy != 1 {
		t.Fatalf("accuracy = %f, want 1.0", rep.Accuracy)
	}
	if res.TemplateMatches != 1 {
		t.Fatalf("TemplateMatches = %d (outputs: %+v)", res.TemplateMatches, res.Outputs)
	}
	if res.Outputs[0].Method != MethodComparator {
		t.Fatalf("method = %s", res.Outputs[0].Method)
	}
	// Without the template, a 16-input comparator tree would be enormous;
	// the matched circuit must be small.
	if res.Size > 80 {
		t.Fatalf("comparator circuit size = %d, suspiciously large", res.Size)
	}
}

func TestLearnLinearViaTemplate(t *testing.T) {
	const w = 6
	g := circuit.New()
	a := g.AddPIWord("a", w)
	b := g.AddPIWord("b", w)
	sum := g.AddWords(g.MulConst(a, 3, w), g.AddWords(b, g.ConstWord(5, w)))
	g.AddPOWord("z", sum)

	res, rep := learnAndMeasure(t, g, Options{Seed: 3}, 6000)
	if rep.Accuracy != 1 {
		t.Fatalf("accuracy = %f, want 1.0", rep.Accuracy)
	}
	if res.TemplateMatches != w {
		t.Fatalf("TemplateMatches = %d, want %d", res.TemplateMatches, w)
	}
}

func TestLearnConstantOutput(t *testing.T) {
	g := circuit.New()
	g.AddPI("a")
	g.AddPI("b")
	g.AddPO("one", g.Const(true))
	g.AddPO("zero", g.Const(false))
	res, rep := learnAndMeasure(t, g, Options{Seed: 4, DisablePreprocessing: true}, 2000)
	if rep.Accuracy != 1 {
		t.Fatalf("accuracy = %f", rep.Accuracy)
	}
	for _, or := range res.Outputs {
		if or.Method != MethodConstant {
			t.Fatalf("method = %s, want constant", or.Method)
		}
	}
	if res.Size != 0 {
		t.Fatalf("constant circuit size = %d", res.Size)
	}
}

func TestLearnTreePathForWiderSupport(t *testing.T) {
	// 16 inputs all in support with a shallow dominant structure: the
	// tree path (support > threshold) must still learn it exactly.
	g := circuit.New()
	var in []circuit.Signal
	for i := 0; i < 16; i++ {
		in = append(in, g.AddPI("w"+string(rune('a'+i))))
	}
	// f = OR of 4 disjoint AND-quads: every input matters.
	var quads []circuit.Signal
	for q := 0; q < 4; q++ {
		quads = append(quads, g.AndTree(in[q*4:q*4+4]))
	}
	g.AddPO("f", g.OrTree(quads))

	res, rep := learnAndMeasure(t, g, Options{
		Seed:                5,
		ExhaustiveThreshold: 8, // force the tree path
		TreeR:               96,
	}, 6000)
	if res.Outputs[0].Method != MethodTree {
		t.Fatalf("method = %s, want tree", res.Outputs[0].Method)
	}
	if rep.Accuracy < 0.999 {
		t.Fatalf("accuracy = %f, want >= 0.999 (%+v)", rep.Accuracy, res.Outputs[0])
	}
}

func TestExhaustiveThresholdBoundary(t *testing.T) {
	// One output over a 5-input support of 8 inputs. The support is
	// conquered exhaustively while it is at most ExhaustiveThreshold, so
	// 5 is the last threshold that takes the exhaustive path and 4 sends
	// it through the tree. Both must learn the function exactly.
	g := circuit.New()
	var in []circuit.Signal
	for i := 0; i < 8; i++ {
		in = append(in, g.AddPI("pin"+string(rune('a'+i))))
	}
	g.AddPO("f", g.Or(g.And(in[0], in[2]), g.And(in[3], g.Xor(in[5], in[6]))))

	for _, tc := range []struct {
		threshold int
		want      Method
	}{{5, MethodExhaustive}, {4, MethodTree}} {
		res := Learn(oracle.FromCircuit(g), Options{Seed: 3, ExhaustiveThreshold: tc.threshold})
		out := res.Outputs[0]
		if out.Method != tc.want || out.Support != 5 {
			t.Errorf("threshold %d: method %s over support %d, want %s over 5",
				tc.threshold, out.Method, out.Support, tc.want)
		}
		a := make([]bool, 8)
		for m := 0; m < 1<<8; m++ {
			for i := range a {
				a[i] = m>>uint(i)&1 == 1
			}
			if got, want := res.Circuit.Eval(a)[0], g.Eval(a)[0]; got != want {
				t.Fatalf("threshold %d: learned %v at minterm %08b, want %v", tc.threshold, got, m, want)
			}
		}
	}
}

func TestLearnRespectsTimeLimit(t *testing.T) {
	// A hard 24-input parity with an (effectively) expired deadline must
	// still return a circuit quickly.
	g := circuit.New()
	var in []circuit.Signal
	for i := 0; i < 24; i++ {
		in = append(in, g.AddPI("p"+string(rune('a'+i%26))+string(rune('0'+i/26))))
	}
	g.AddPO("parity", g.XorTree(in))
	o := oracle.FromCircuit(g)
	start := time.Now()
	res := Learn(o, Options{
		Seed:                 6,
		TimeLimit:            200 * time.Millisecond,
		ExhaustiveThreshold:  4,
		DisablePreprocessing: true,
		DisableOptimization:  true,
		SupportR:             256,
	})
	if time.Since(start) > 30*time.Second {
		t.Fatal("time limit grossly exceeded")
	}
	if !res.Outputs[0].Truncated {
		t.Fatalf("expected truncated tree: %+v", res.Outputs[0])
	}
}

func TestDisablePreprocessingForcesTreeOnComparator(t *testing.T) {
	g := circuit.New()
	a := g.AddPIWord("a", 4)
	b := g.AddPIWord("b", 4)
	g.AddPO("eq", g.EqWords(a, b))
	o := oracle.FromCircuit(g)

	with := Learn(o, Options{Seed: 7})
	without := Learn(o, Options{Seed: 7, DisablePreprocessing: true})
	if with.TemplateMatches != 1 {
		t.Fatalf("preprocessing on: TemplateMatches = %d", with.TemplateMatches)
	}
	if without.TemplateMatches != 0 {
		t.Fatalf("preprocessing off: TemplateMatches = %d", without.TemplateMatches)
	}
	// Both should still be accurate (8 inputs fit the exhaustive path).
	repOff := eval.Measure(o, oracle.FromCircuit(without.Circuit), eval.Config{Patterns: 4000, Seed: 1})
	if repOff.Accuracy != 1 {
		t.Fatalf("tree fallback accuracy = %f", repOff.Accuracy)
	}
}

func TestHiddenCompressionLearnsThroughDelegate(t *testing.T) {
	// z = d XOR (Na < Nb) over 5-bit buses: support is 11 wide, beyond a
	// threshold of 8, but compression reduces it to {d, delegate}.
	g := circuit.New()
	a := g.AddPIWord("a", 5)
	b := g.AddPIWord("b", 5)
	d := g.AddPI("d")
	g.AddPO("z", g.Xor(d, g.LtWords(a, b)))
	o := oracle.FromCircuit(g)

	res := Learn(o, Options{
		Seed:                8,
		ExhaustiveThreshold: 8,
		HiddenCompression:   true,
	})
	if res.Outputs[0].Method != MethodCompressed {
		t.Fatalf("method = %s, want tree-compressed", res.Outputs[0].Method)
	}
	rep := eval.Measure(o, oracle.FromCircuit(res.Circuit), eval.Config{Patterns: 6000, Seed: 2})
	if rep.Accuracy != 1 {
		t.Fatalf("accuracy = %f, want 1.0", rep.Accuracy)
	}
}

func TestHiddenCompressionTreeTakesTheTreeDispatch(t *testing.T) {
	// z = (d AND e OR f) XOR (Na < Nb) over 5-bit buses: compression leaves
	// {d, e, f, delegate}, which a threshold of 1 sends to the tree, and a
	// two-node budget truncates it. A compressed output must go through the
	// same step-4 dispatch as any other and report the truncation.
	g := circuit.New()
	a := g.AddPIWord("a", 5)
	b := g.AddPIWord("b", 5)
	d, e, f := g.AddPI("d"), g.AddPI("e"), g.AddPI("f")
	g.AddPO("z", g.Xor(g.Or(g.And(d, e), f), g.LtWords(a, b)))

	res := Learn(oracle.FromCircuit(g), Options{
		Seed:                8,
		ExhaustiveThreshold: 1,
		MaxTreeNodes:        2,
		HiddenCompression:   true,
	})
	rep := res.Outputs[0]
	if rep.Method != MethodCompressed || !rep.Truncated || rep.ApproxLeaf == 0 {
		t.Fatalf("report = %+v, want a truncated tree-compressed output with approximate leaves", rep)
	}
}

func TestOptimizationShrinksOrKeeps(t *testing.T) {
	g := circuit.New()
	var in []circuit.Signal
	for i := 0; i < 8; i++ {
		in = append(in, g.AddPI("q"+string(rune('a'+i))))
	}
	g.AddPO("f", g.Or(g.AndTree(in[:4]), g.AndTree(in[4:])))
	o := oracle.FromCircuit(g)
	res := Learn(o, Options{Seed: 9})
	if res.Size > res.SizeBeforeOpt {
		t.Fatalf("optimization grew the circuit: %d -> %d", res.SizeBeforeOpt, res.Size)
	}
}

func TestResultStringNonEmpty(t *testing.T) {
	g := circuit.New()
	g.AddPO("z", g.AddPI("a"))
	res := Learn(oracle.FromCircuit(g), Options{Seed: 10})
	if res.String() == "" {
		t.Fatal("empty result string")
	}
}

func TestMemoizeQueriesDeduplicates(t *testing.T) {
	calls := 0
	o := &oracle.FuncOracle{
		Ins:  []string{"a", "b", "c"},
		Outs: []string{"z"},
		F: func(in []bool) []bool {
			calls++
			return []bool{in[0] && (in[1] != in[2])}
		},
	}
	res := Learn(o, Options{Seed: 41, MemoizeQueries: true, SupportR: 512})
	rep := eval.Measure(o, oracle.FromCircuit(res.Circuit), eval.Config{Patterns: 2000, Seed: 3})
	if rep.Accuracy != 1 {
		t.Fatalf("accuracy = %f", rep.Accuracy)
	}
	// Only 8 distinct assignments exist, so the learn phase costs at most
	// 8 real calls; the accuracy measurement above issues its own
	// (unmemoized) queries in full 64-bit words: 3 pools of ceil(666/64)
	// words = 2112 calls. Anything meaningfully above that means the memo
	// is not deduplicating.
	if calls > 2112+16 {
		t.Fatalf("inner oracle called %d times despite memoization", calls)
	}
	if res.Queries == 0 {
		t.Fatal("query accounting lost")
	}
}
