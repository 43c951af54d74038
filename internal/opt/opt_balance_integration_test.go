package opt

import (
	"math/rand"
	"strconv"
	"testing"

	"logicregression/internal/circuit"
)

func TestOptimizeWithBalanceDepth(t *testing.T) {
	// A long AND chain: size-optimal already, but deep. With a balance pass
	// after the default pipeline the result keeps its size and flattens.
	c := circuit.New()
	var acc circuit.Signal
	for i := 0; i < 32; i++ {
		pi := c.AddPI("x" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		if i == 0 {
			acc = pi
		} else {
			acc = c.And(acc, pi)
		}
	}
	c.AddPO("z", acc)

	plain := Optimize(c, Config{Seed: 1})
	balanced, err := RunScript(c, DefaultScript+"; balance", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if balanced.Size() > plain.Size() {
		t.Fatalf("balance grew size: %d vs %d", balanced.Size(), plain.Size())
	}
	if bd, pd := balanced.Stats().Depth, plain.Stats().Depth; bd > pd {
		t.Fatalf("balance increased depth: %d vs %d", bd, pd)
	}
	if balanced.Stats().Depth > 6 {
		t.Fatalf("balanced depth = %d, want ~log2(32)", balanced.Stats().Depth)
	}
	simEqual(t, c, balanced, rand.New(rand.NewSource(5)), 60)
}

func TestRunScriptKeepsBalancedCircuit(t *testing.T) {
	// A 16-input AND chain is size-optimal, so balancing only ties on
	// size. The script must still keep the balanced circuit: depth 15 -> 4.
	c := circuit.New()
	acc := c.AddPI("x0")
	for i := 1; i < 16; i++ {
		acc = c.And(acc, c.AddPI("x"+strconv.Itoa(i)))
	}
	c.AddPO("z", acc)

	got, err := RunScript(c, "strash; balance", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != c.Size() {
		t.Fatalf("script changed the size: %d -> %d", c.Size(), got.Size())
	}
	if d := got.Stats().Depth; d != 4 {
		t.Fatalf("script depth = %d, want 4", d)
	}
	simEqual(t, c, got, rand.New(rand.NewSource(6)), 60)
}
