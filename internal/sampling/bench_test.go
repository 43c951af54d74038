package sampling

import (
	"math/rand"
	"testing"

	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
)

func benchOracle(nPI int) oracle.Oracle {
	rng := rand.New(rand.NewSource(1))
	c := circuit.New()
	sigs := make([]circuit.Signal, 0, nPI)
	for i := 0; i < nPI; i++ {
		sigs = append(sigs, c.AddPI("x"+string(rune('a'+i%26))+string(rune('a'+i/26))))
	}
	acc := sigs[0]
	for i := 0; i < 4*nPI; i++ {
		a := sigs[rng.Intn(len(sigs))]
		acc = c.Or(c.And(acc, a), c.Xor(acc, sigs[rng.Intn(len(sigs))]))
	}
	c.AddPO("z", acc)
	return oracle.FromCircuit(c)
}

func BenchmarkPatternSampling64Inputs(b *testing.B) {
	o := benchOracle(64)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PatternSampling(o, 0, nil, Config{R: 64}, rng)
	}
	b.ReportMetric(64*2*64, "queries/op")
}

func BenchmarkPatternSamplingPaperSupportR(b *testing.B) {
	// The paper's support-identification setting: r=7200 per input.
	o := benchOracle(32)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PatternSampling(o, 0, nil, Config{R: 7200}, rng)
	}
}

func BenchmarkBiasedWord(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < b.N; i++ {
		BiasedWord(rng, 0.25)
	}
}

// BenchmarkFillBiased is BenchmarkBiasedWord's bulk counterpart: rows of
// 64 words at the same bias, read from a *Source's ring. ns/word compares
// with BenchmarkBiasedWord's ns/op.
func BenchmarkFillBiased(b *testing.B) {
	src := NewSource(4)
	row := make([]uint64, 64)
	for i := 0; i < b.N; i++ {
		src.fillBiased(row, 0.25)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(row)), "ns/word")
}
