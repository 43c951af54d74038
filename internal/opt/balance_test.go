package opt

import (
	"math/rand"
	"testing"

	"logicregression/internal/aig"
)

func TestBalanceReducesChainDepth(t *testing.T) {
	// A linear AND chain over 16 inputs: depth 15 -> ceil(log2 16) = 4.
	names := make([]string, 16)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	g := aig.New(names)
	acc := g.PI(0)
	for i := 1; i < 16; i++ {
		acc = g.And(acc, g.PI(i))
	}
	g.AddPO("z", acc)
	before := g.ToCircuit().Stats().Depth
	if before != 15 {
		t.Fatalf("chain depth = %d, want 15", before)
	}
	b := Balance(g)
	after := b.ToCircuit().Stats().Depth
	if after != 4 {
		t.Fatalf("balanced depth = %d, want 4", after)
	}
	if b.NumAnds() > g.NumAnds() {
		t.Fatalf("balance grew the AIG: %d -> %d", g.NumAnds(), b.NumAnds())
	}
	// Function check on all 2^16 patterns via word sim (1024 words).
	for base := 0; base < 1<<16; base += 64 {
		in := make([]uint64, 16)
		for pat := 0; pat < 64; pat++ {
			m := base + pat
			for i := 0; i < 16; i++ {
				if m>>uint(i)&1 == 1 {
					in[i] |= 1 << uint(pat)
				}
			}
		}
		if g.EvalPOs(in)[0] != b.EvalPOs(in)[0] {
			t.Fatalf("balance changed function near pattern %d", base)
		}
	}
}

func TestBalanceRespectsSharedNodes(t *testing.T) {
	// A shared subterm must not be duplicated by flattening.
	g := aig.New([]string{"a", "b", "c", "d"})
	shared := g.And(g.PI(0), g.PI(1)) // fanout 2
	x := g.And(shared, g.PI(2))
	y := g.And(shared, g.PI(3))
	g.AddPO("x", x)
	g.AddPO("y", y)
	b := Balance(g)
	if b.NumAnds() > g.NumAnds() {
		t.Fatalf("balance duplicated shared logic: %d -> %d", g.NumAnds(), b.NumAnds())
	}
}

func TestBalancePreservesRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		c := randomCircuit(rng, 6, 60, 3)
		g := aig.FromCircuit(c)
		b := Balance(g)
		bc := b.ToCircuit()
		simEqual(t, c, bc, rng, 60)
		if eq, done := ProveEquivalent(c, bc, 20000); done && !eq {
			t.Fatalf("trial %d: balance changed function", trial)
		}
		dg := g.ToCircuit().Stats().Depth
		db := b.ToCircuit().Stats().Depth
		if db > dg {
			t.Fatalf("trial %d: balance increased depth %d -> %d", trial, dg, db)
		}
	}
}

func TestBalanceHandlesConstantsAndPassthrough(t *testing.T) {
	g := aig.New([]string{"a"})
	g.AddPO("t", aig.True)
	g.AddPO("f", aig.False)
	g.AddPO("p", g.PI(0))
	g.AddPO("n", g.PI(0).Not())
	b := Balance(g)
	out := b.EvalPOs([]uint64{0xFF})
	if out[0] != ^uint64(0) || out[1] != 0 || out[2] != 0xFF || out[3] != ^uint64(0xFF) {
		t.Fatalf("constants/passthrough wrong: %x", out)
	}
}
