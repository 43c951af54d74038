package sop

import (
	"math/rand"
	"testing"
	"testing/quick"

	"logicregression/internal/circuit"
)

// evalBoth builds a cover flat and factored and checks both agree with the
// cover semantics over all assignments.
func checkFactoredEquals(t *testing.T, cv Cover, nVars int, negate bool) {
	t.Helper()
	flat := circuit.New()
	fvars := make([]circuit.Signal, nVars)
	for i := range fvars {
		fvars[i] = flat.AddPI("v" + string(rune('a'+i)))
	}
	flat.AddPO("z", Synthesize(flat, cv, fvars, negate))

	fact := circuit.New()
	gvars := make([]circuit.Signal, nVars)
	for i := range gvars {
		gvars[i] = fact.AddPI("v" + string(rune('a'+i)))
	}
	fact.AddPO("z", SynthesizeFactored(fact, cv, gvars, negate))

	for m := 0; m < 1<<uint(nVars); m++ {
		a := make([]bool, nVars)
		for v := 0; v < nVars; v++ {
			a[v] = m>>uint(v)&1 == 1
		}
		want := cv.Eval(a) != negate
		if flat.Eval(a)[0] != want {
			t.Fatalf("flat synthesis wrong at %b", m)
		}
		if fact.Eval(a)[0] != want {
			t.Fatalf("factored synthesis wrong at %b (cover %v)", m, cv)
		}
	}
}

func TestFactoredMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40; trial++ {
		nVars := 2 + rng.Intn(5)
		cv := randomCover(rng, 1+rng.Intn(10), nVars, 0.6)
		checkFactoredEquals(t, cv, nVars, trial%2 == 0)
	}
}

func TestFactoredSharesCommonLiteral(t *testing.T) {
	// F = a·b + a·c + a·d: flat = 3 AND + 2 OR = 5 gates (+0 inverters);
	// factored = a·(b+c+d) = 1 AND + 2 OR = 3 gates.
	var cv Cover
	for _, v := range []int{1, 2, 3} {
		cube, _ := NewCube(Literal{Var: 0}, Literal{Var: v})
		cv = append(cv, cube)
	}
	flat := circuit.New()
	fvars := make([]circuit.Signal, 4)
	for i := range fvars {
		fvars[i] = flat.AddPI("v" + string(rune('a'+i)))
	}
	flat.AddPO("z", Synthesize(flat, cv, fvars, false))

	fact := circuit.New()
	gvars := make([]circuit.Signal, 4)
	for i := range gvars {
		gvars[i] = fact.AddPI("v" + string(rune('a'+i)))
	}
	fact.AddPO("z", SynthesizeFactored(fact, cv, gvars, false))

	if fact.Size() >= flat.Size() {
		t.Fatalf("factored %d gates, flat %d: no sharing", fact.Size(), flat.Size())
	}
	checkFactoredEquals(t, cv, 4, false)
}

func TestFactoredEdgeCases(t *testing.T) {
	checkFactoredEquals(t, nil, 2, false)         // constant 0
	checkFactoredEquals(t, nil, 2, true)          // constant 1 via negate
	checkFactoredEquals(t, Cover{{}}, 2, false)   // constant 1 (empty cube)
	one, _ := NewCube(Literal{Var: 1, Neg: true}) // single literal
	checkFactoredEquals(t, Cover{one}, 2, false)
}

func TestQuickFactoredEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(4)
		cv := randomCover(rng, rng.Intn(12), nVars, 0.5)
		fact := circuit.New()
		gvars := make([]circuit.Signal, nVars)
		for i := range gvars {
			gvars[i] = fact.AddPI("v" + string(rune('a'+i)))
		}
		fact.AddPO("z", SynthesizeFactored(fact, cv, gvars, false))
		for m := 0; m < 1<<uint(nVars); m++ {
			a := make([]bool, nVars)
			for v := 0; v < nVars; v++ {
				a[v] = m>>uint(v)&1 == 1
			}
			if fact.Eval(a)[0] != cv.Eval(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// referenceMostFrequentLiteral is mostFrequentLiteral over a map, updating
// the best literal as each occurrence is counted.
func referenceMostFrequentLiteral(cv Cover) (Literal, int) {
	counts := make(map[Literal]int)
	var best Literal
	bestN := 0
	for _, cube := range cv {
		for _, l := range cube {
			counts[l]++
			if counts[l] > bestN || (counts[l] == bestN && less(l, best)) {
				best = l
				bestN = counts[l]
			}
		}
	}
	return best, bestN
}

// TestMostFrequentLiteralMatchesReference compares the dense count with the
// map reference on random covers over a few variables, where ties are
// common, reusing one scratch slice to check it is left zeroed.
func TestMostFrequentLiteralMatchesReference(t *testing.T) {
	const maxVars = 5
	rng := rand.New(rand.NewSource(17))
	counts := make([]int, 2*maxVars)
	for k := 0; k < 5000; k++ {
		cv := randomCover(rng, rng.Intn(10), 1+rng.Intn(maxVars), 0.2+0.6*rng.Float64())
		gotL, gotN := mostFrequentLiteral(cv, counts)
		wantL, wantN := referenceMostFrequentLiteral(cv)
		if gotL != wantL || gotN != wantN {
			t.Fatalf("cover %v: got %v x%d, reference %v x%d", cv, gotL, gotN, wantL, wantN)
		}
		for i, n := range counts {
			if n != 0 {
				t.Fatalf("cover %v: scratch entry %d left at %d", cv, i, n)
			}
		}
	}
}
