package support

import (
	"math/rand"
	"testing"

	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
)

// hiddenFn: out0 depends on {0,1,4}, out1 on {2}, out2 on nothing.
func hiddenFn() oracle.Oracle {
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	x := c.AddPI("x")
	c.AddPI("unused")
	e := c.AddPI("e")
	c.AddPO("f", c.Or(c.And(a, b), e))
	c.AddPO("g", c.NotGate(x))
	c.AddPO("h", c.Const(true))
	return oracle.FromCircuit(c)
}

func TestIdentifyFindsExactSupport(t *testing.T) {
	o := hiddenFn()
	rng := rand.New(rand.NewSource(1))
	info := Identify(o, 0, Config{R: 512}, rng)
	want := []int{0, 1, 4}
	if len(info.Support) != len(want) {
		t.Fatalf("support = %v, want %v", info.Support, want)
	}
	for i := range want {
		if info.Support[i] != want[i] {
			t.Fatalf("support = %v, want %v", info.Support, want)
		}
	}
}

func TestIdentifySingleInputOutput(t *testing.T) {
	o := hiddenFn()
	rng := rand.New(rand.NewSource(2))
	info := Identify(o, 1, Config{R: 256}, rng)
	if len(info.Support) != 1 || info.Support[0] != 2 {
		t.Fatalf("support = %v, want [2]", info.Support)
	}
}

func TestIdentifyConstantOutput(t *testing.T) {
	o := hiddenFn()
	rng := rand.New(rand.NewSource(3))
	info := Identify(o, 2, Config{R: 256}, rng)
	if len(info.Support) != 0 {
		t.Fatalf("constant output support = %v", info.Support)
	}
	if info.TruthRatio != 1 {
		t.Fatalf("TruthRatio = %f, want 1", info.TruthRatio)
	}
}

func TestIdentifyTruthRatioMatchesBias(t *testing.T) {
	// Output g = NOT x: truth ratio across the pool averages 1 - mean(pool).
	o := hiddenFn()
	rng := rand.New(rand.NewSource(8))
	info := Identify(o, 1, Config{R: 2048, Ratios: []float64{0.5}}, rng)
	if info.TruthRatio < 0.45 || info.TruthRatio > 0.55 {
		t.Fatalf("TruthRatio = %f, want ~0.5", info.TruthRatio)
	}
}
