package circuit

import (
	"math/rand"
	"testing"
)

func benchCircuit(nPI, nGates int) (*Circuit, []uint64) {
	rng := rand.New(rand.NewSource(1))
	c := randomCircuit(rng, nPI, nGates, 4)
	in := make([]uint64, nPI)
	for i := range in {
		in[i] = rng.Uint64()
	}
	return c, in
}

func BenchmarkEvalWords1K(b *testing.B) {
	c, in := benchCircuit(64, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EvalWords(in)
	}
	b.ReportMetric(float64(64*1000), "gate-evals/op")
}

func BenchmarkEvalWords100K(b *testing.B) {
	c, in := benchCircuit(128, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EvalWords(in)
	}
}

func BenchmarkEvalScalar(b *testing.B) {
	c, _ := benchCircuit(64, 1000)
	assign := make([]bool, 64)
	for i := range assign {
		assign[i] = i%3 == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Eval(assign)
	}
}

func BenchmarkAdder64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := New()
		x := c.AddPIWord("x", 64)
		y := c.AddPIWord("y", 64)
		c.AddPOWord("s", c.AddWords(x, y))
	}
}

// BenchmarkEvalLanes16 simulates 1024 patterns (16 lane words) per call
// through a reused Evaluator, the shape of a wide oracle batch.
func BenchmarkEvalLanes16(b *testing.B) {
	const w = 16
	rng := rand.New(rand.NewSource(1))
	c := randomCircuit(rng, 128, 10000, 4)
	lanes := make([]uint64, c.NumPI()*w)
	for i := range lanes {
		lanes[i] = rng.Uint64()
	}
	out := make([]uint64, c.NumPO()*w)
	ev := c.NewEvaluator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvalLanes(lanes, w, out)
	}
	b.ReportMetric(float64(64*w*10000)/(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "gate-evals/ns")
}
