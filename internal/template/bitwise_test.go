package template

import (
	"math/rand"
	"testing"

	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
)

func bitwiseGolden(w int, op BitwiseOp) *circuit.Circuit {
	c := circuit.New()
	a := c.AddPIWord("lhs", w)
	b := c.AddPIWord("rhs", w)
	z := make(circuit.Word, w)
	for i := 0; i < w; i++ {
		switch op {
		case BAnd:
			z[i] = c.And(a[i], b[i])
		case BOr:
			z[i] = c.Or(a[i], b[i])
		case BXor:
			z[i] = c.Xor(a[i], b[i])
		case BNand:
			z[i] = c.Nand(a[i], b[i])
		case BNor:
			z[i] = c.Nor(a[i], b[i])
		case BXnor:
			z[i] = c.Xnor(a[i], b[i])
		case BNot:
			z[i] = c.NotGate(a[i])
		default:
			z[i] = c.BufGate(a[i])
		}
	}
	c.AddPOWord("res", z)
	return c
}

func TestUnaryLaneOpsAreCoveredByLinearFamily(t *testing.T) {
	// z = a and z = NOT a are affine (coefficients 1 and -1), so the
	// paper's linear family claims them before the bitwise screen runs.
	for _, op := range []BitwiseOp{BBuf, BNot} {
		golden := bitwiseGolden(5, op)
		o := oracle.FromCircuit(golden)
		m := Detect(o, Config{Samples: 96, Verify: 24, ExtendedTemplates: true},
			rand.New(rand.NewSource(7)))
		if len(m.MatchedOutputs()) != 5 {
			t.Fatalf("%v: outputs not covered: %v (linear %+v bitwise %+v)",
				op, m.MatchedOutputs(), m.Linear, m.Bitwise)
		}
	}
}

func TestDetectBitwiseAllOps(t *testing.T) {
	// Binary lane operators are not affine and need the extended family.
	for op := BAnd; op <= BXnor; op++ {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			golden := bitwiseGolden(6, op)
			o := oracle.FromCircuit(golden)
			m := Detect(o, Config{Samples: 96, Verify: 24, ExtendedTemplates: true},
				rand.New(rand.NewSource(int64(op)+1)))
			if len(m.Bitwise) != 1 {
				t.Fatalf("bitwise matches = %+v (linear: %+v)", m.Bitwise, m.Linear)
			}
			bm := m.Bitwise[0]
			// Functional check: synthesized subcircuit equals golden.
			cc := circuit.New()
			piSigs := make([]circuit.Signal, o.NumInputs())
			for i, name := range o.InputNames() {
				piSigs[i] = cc.AddPI(name)
			}
			cc.AddPOWord("res", bm.Synthesize(cc, piSigs))
			rng := rand.New(rand.NewSource(99))
			for k := 0; k < 500; k++ {
				assign := make([]bool, o.NumInputs())
				for i := range assign {
					assign[i] = rng.Intn(2) == 1
				}
				want := golden.Eval(assign)
				got := cc.Eval(assign)
				for j := range want {
					if want[j] != got[j] {
						t.Fatalf("op %v: synthesized differs at output %d", op, j)
					}
				}
			}
		})
	}
}

func TestDetectBitwiseOffByDefault(t *testing.T) {
	golden := bitwiseGolden(4, BXor)
	o := oracle.FromCircuit(golden)
	// XOR lanes are also a linear relation? No: lane XOR is addition
	// without carry, which differs from modular addition, so the linear
	// family must NOT claim it, and with extensions off nothing matches.
	m := Detect(o, Config{Samples: 96, Verify: 24}, rand.New(rand.NewSource(1)))
	if len(m.Bitwise) != 0 {
		t.Fatalf("bitwise family ran while disabled: %+v", m.Bitwise)
	}
	if len(m.Linear) != 0 {
		t.Fatalf("linear family claimed lane XOR: %+v", m.Linear)
	}
}

func TestDetectBitwiseRejectsNonLaneLogic(t *testing.T) {
	// z = a + b (modular addition has carries): not lane-wise.
	c := circuit.New()
	a := c.AddPIWord("lhs", 5)
	b := c.AddPIWord("rhs", 5)
	c.AddPOWord("res", c.AddWords(a, b))
	o := oracle.FromCircuit(c)
	m := Detect(o, Config{Samples: 96, Verify: 24, ExtendedTemplates: true},
		rand.New(rand.NewSource(2)))
	if len(m.Bitwise) != 0 {
		t.Fatalf("bitwise family claimed an adder: %+v", m.Bitwise)
	}
	// The adder IS linear, so the paper family should claim it instead.
	if len(m.Linear) != 1 {
		t.Fatalf("linear family missed the adder: %+v", m.Linear)
	}
}

func TestBitwiseDoesNotDoubleClaimLinearOutputs(t *testing.T) {
	// An output already matched by the linear family must not appear in
	// the bitwise list.
	c := circuit.New()
	a := c.AddPIWord("lhs", 5)
	b := c.AddPIWord("rhs", 5)
	c.AddPOWord("sum", c.AddWords(a, b))
	z := make(circuit.Word, 5)
	for i := range z {
		z[i] = c.And(a[i], b[i])
	}
	c.AddPOWord("mask", z)
	o := oracle.FromCircuit(c)
	m := Detect(o, Config{Samples: 96, Verify: 24, ExtendedTemplates: true},
		rand.New(rand.NewSource(3)))
	if len(m.Linear) != 1 || m.Linear[0].OutVec.Stem != "sum" {
		t.Fatalf("linear = %+v", m.Linear)
	}
	if len(m.Bitwise) != 1 || m.Bitwise[0].OutVec.Stem != "mask" {
		t.Fatalf("bitwise = %+v", m.Bitwise)
	}
	if len(m.MatchedOutputs()) != 10 {
		t.Fatalf("covered = %v", m.MatchedOutputs())
	}
}

func TestBitwiseOpEvalTable(t *testing.T) {
	const a, b = 0b1100, 0b1010
	cases := map[BitwiseOp]uint64{
		BAnd:  0b1000,
		BOr:   0b1110,
		BXor:  0b0110,
		BNand: ^uint64(0b1000),
		BNor:  ^uint64(0b1110),
		BXnor: ^uint64(0b0110),
		BNot:  ^uint64(0b1100),
		BBuf:  0b1100,
	}
	for op, want := range cases {
		if got := op.Eval(a, b); got != want {
			t.Errorf("%v: got %b, want %b", op, got, want)
		}
	}
}
