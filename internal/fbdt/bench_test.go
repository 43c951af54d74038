package fbdt

import (
	"math/bits"
	"math/rand"
	"testing"

	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
)

func BenchmarkBuildMajorityTree(b *testing.B) {
	c := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < 9; i++ {
		sigs = append(sigs, c.AddPI(string(rune('a'+i))))
	}
	// 3-of-3 majority-of-majorities.
	var maj []circuit.Signal
	for q := 0; q < 3; q++ {
		x, y, z := sigs[3*q], sigs[3*q+1], sigs[3*q+2]
		maj = append(maj, c.Or(c.Or(c.And(x, y), c.And(x, z)), c.And(y, z)))
	}
	c.AddPO("m", c.Or(c.Or(c.And(maj[0], maj[1]), c.And(maj[0], maj[2])), c.And(maj[1], maj[2])))
	o := oracle.FromCircuit(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		Build(o, 0, Config{R: 60}, rng)
	}
}

func BenchmarkExhaustive16(b *testing.B) {
	// The paper's trick-1 path at support 16: 65536 queries per build.
	c := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < 16; i++ {
		sigs = append(sigs, c.AddPI(string(rune('a'+i))))
	}
	var quads []circuit.Signal
	for q := 0; q < 4; q++ {
		quads = append(quads, c.AndTree(sigs[4*q:4*q+4]))
	}
	c.AddPO("z", c.OrTree(quads))
	o := oracle.FromCircuit(c)
	sup := make([]int, 16)
	for i := range sup {
		sup[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		res := Exhaustive(o, 0, sup, rng)
		if len(res.Onset) == 0 {
			b.Fatal("empty onset")
		}
	}
	b.ReportMetric(65536, "queries/op")
}

func BenchmarkISOP18(b *testing.B) {
	// Exhaustive's cover extraction at the paper's support limit, on an
	// XOR-rich table (x0x1 ^ x2x3 ^ ... ^ x16x17) and a random one.
	const k = 18
	sup := make([]int, k)
	for i := range sup {
		sup[i] = i
	}
	rng := rand.New(rand.NewSource(18))
	for _, kind := range []string{"xor-of-ands", "random"} {
		// Pattern p, whose bit b is input sup[b], is table bit k-1-b
		// reversed, as Exhaustive packs it.
		table := make([]uint64, 1<<(k-6))
		for p, v := range isopTable(kind, k, rng) {
			if v {
				m := bits.Reverse64(uint64(p)) >> (64 - k)
				table[m/64] |= 1 << (m % 64)
			}
		}
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			var cubes int
			for i := 0; i < b.N; i++ {
				onset, offset := isopCovers(table, sup)
				cubes = len(onset) + len(offset)
			}
			b.ReportMetric(float64(cubes), "cubes")
		})
	}
}
