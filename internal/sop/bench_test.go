package sop

import (
	"fmt"
	"math/rand"
	"testing"

	"logicregression/internal/circuit"
)

// randomCover builds n cubes over v variables with the given literal density.
func randomCover(rng *rand.Rand, n, v int, density float64) Cover {
	var cv Cover
	for k := 0; k < n; k++ {
		var lits []Literal
		for x := 0; x < v; x++ {
			if rng.Float64() < density {
				lits = append(lits, Literal{Var: x, Neg: rng.Intn(2) == 1})
			}
		}
		c, ok := NewCube(lits...)
		if ok {
			cv = append(cv, c)
		}
	}
	return cv
}

// treeCover returns the onset of a random decision tree over v variables
// with the given number of leaves: each split takes a random leaf and a
// variable its path leaves free, and each leaf joins the onset with
// probability 1/2. The cubes share their path prefixes, as the covers of
// fbdt.Build's trees do.
func treeCover(rng *rand.Rand, leaves, v int) Cover {
	tree := Cover{{}}
	for len(tree) < leaves {
		i, x := rng.Intn(len(tree)), rng.Intn(v)
		if _, bound := tree[i].Has(x); bound {
			continue
		}
		tree = append(tree, tree[i].With(Literal{Var: x}))
		tree[i] = tree[i].With(Literal{Var: x, Neg: true})
	}
	var on Cover
	for _, cube := range tree {
		if rng.Intn(2) == 0 {
			on = append(on, cube)
		}
	}
	return on
}

// BenchmarkSynthesizeFactored factors the onset of a random 300-leaf
// decision tree over 40 variables, about the cover that a learn's
// 600-node truncated tree hands to synthesis; -benchmem shows what
// factoring allocates.
func BenchmarkSynthesizeFactored(b *testing.B) {
	const nVars = 40
	cv := treeCover(rand.New(rand.NewSource(8)), 300, nVars)
	names := make([]string, nVars)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	vars := make([]circuit.Signal, nVars)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := circuit.New()
		for j, name := range names {
			vars[j] = c.AddPI(name)
		}
		SynthesizeFactored(c, cv, vars, false)
	}
	b.ReportMetric(float64(len(cv)), "cubes/op")
}

func BenchmarkMinimizeMintermHeavy(b *testing.B) {
	// Full-width minterm covers are what the FBDT's truncated trees emit.
	rng := rand.New(rand.NewSource(5))
	cv := randomCover(rng, 2000, 24, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Minimize(cv)
	}
	b.ReportMetric(float64(len(cv)), "cubes/op")
}

func BenchmarkMinimizeSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	cv := randomCover(rng, 2000, 40, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Minimize(cv)
	}
}

func BenchmarkCoverEval(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	cv := randomCover(rng, 500, 32, 0.5)
	assign := make([]bool, 32)
	for i := range assign {
		assign[i] = rng.Intn(2) == 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv.Eval(assign)
	}
}
