package sop

import (
	"bytes"
	"fmt"
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

// referenceFactor is the plain recursive form of factoring: each division
// copies its quotient's cubes without the divisor literal and grows the
// quotient and remainder as fresh covers. SynthesizeFactored must build
// the same gates in the same order.
func referenceFactor(c *circuit.Circuit, cv Cover, lits *litSignals, counts []int) circuit.Signal {
	switch len(cv) {
	case 0:
		return c.Const(false)
	case 1:
		return andCube(c, cv[0], lits)
	}
	best, count := mostFrequentLiteral(cv, counts)
	if count < 2 {
		terms := make([]circuit.Signal, len(cv))
		for i, cube := range cv {
			terms[i] = andCube(c, cube, lits)
		}
		return c.OrTree(terms)
	}
	var quotient, remainder Cover
	for _, cube := range cv {
		if l, ok := cube.Has(best.Var); ok && l.Neg == best.Neg {
			quotient = append(quotient, referenceRemoveVar(cube, best.Var))
		} else {
			remainder = append(remainder, cube)
		}
	}
	q := c.And(lits.signal(best), referenceFactor(c, quotient, lits, counts))
	if len(remainder) == 0 {
		return q
	}
	return c.Or(q, referenceFactor(c, remainder, lits, counts))
}

func referenceRemoveVar(cube Cube, v int) Cube {
	out := make(Cube, 0, len(cube)-1)
	for _, l := range cube {
		if l.Var != v {
			out = append(out, l)
		}
	}
	return out
}

// referenceSynthesizeFactored is SynthesizeFactored over referenceFactor.
func referenceSynthesizeFactored(c *circuit.Circuit, cv Cover, vars []circuit.Signal, negate bool) circuit.Signal {
	out := referenceFactor(c, cv.Clone(), newLitSignals(c, vars), make([]int, 2*len(vars)))
	if negate {
		out = negSignal(c, out)
	}
	return out
}

// factoredNetlist returns the netlist bytes of a circuit over nVars inputs
// whose one output synth builds from the cover.
func factoredNetlist(t *testing.T, cv Cover, nVars int, negate bool,
	synth func(*circuit.Circuit, Cover, []circuit.Signal, bool) circuit.Signal) string {
	t.Helper()
	c := circuit.New()
	vars := make([]circuit.Signal, nVars)
	for i := range vars {
		vars[i] = c.AddPI(fmt.Sprintf("v%d", i))
	}
	c.AddPO("z", synth(c, cv, vars, negate))
	var buf bytes.Buffer
	if err := circuit.WriteNetlist(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFactoredMatchesReference requires SynthesizeFactored to write the
// reference's netlist byte for byte, and to leave its cover as it was, on
// random covers with negated literals: empty and one-cube covers, covers
// over a few variables where mostFrequentLiteral often breaks a tie,
// sparser ones, and decision-tree covers, each with negate on and off. A
// gate made out of order, such as the divisor literal's NOT after the
// quotient's gates, renumbers the netlist.
func TestFactoredMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 1200; trial++ {
		var cv Cover
		nVars := 1 + rng.Intn(6)
		switch trial % 4 {
		case 0:
			cv = randomCover(rng, rng.Intn(2), nVars, 0.6)
		case 1:
			cv = randomCover(rng, 2+rng.Intn(16), nVars, 0.3+0.6*rng.Float64())
		case 2:
			nVars = 6 + rng.Intn(20)
			cv = randomCover(rng, 2+rng.Intn(40), nVars, 0.1+0.3*rng.Float64())
		default:
			nVars = 8 + rng.Intn(16)
			cv = treeCover(rng, 2+rng.Intn(60), nVars)
		}
		before := cv.String()
		for _, negate := range []bool{false, true} {
			got := factoredNetlist(t, cv, nVars, negate, SynthesizeFactored)
			want := factoredNetlist(t, cv, nVars, negate, referenceSynthesizeFactored)
			if got != want {
				t.Fatalf("trial %d, cover %v, negate %v: netlist\n%s\nreference\n%s", trial, cv, negate, got, want)
			}
		}
		if after := cv.String(); after != before {
			t.Fatalf("trial %d: SynthesizeFactored changed its cover from %s to %s", trial, before, after)
		}
	}
}
