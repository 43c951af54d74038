package core

// Degraded-mode drills: a black box that dies permanently mid-learn must
// yield a best-so-far Result with the Degraded flag — never a panic, never
// a hang — on both the sequential and parallel paths. Panics that are not
// transport failures must still crash loudly: swallowing a learner bug as
// "degraded" would hide it.

import (
	"strings"
	"testing"

	"logicregression/internal/chaos"
	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
)

// twoOutputGolden builds the small two-output control-logic circuit used by
// the learner tests.
func twoOutputGolden() *circuit.Circuit {
	g := circuit.New()
	var in []circuit.Signal
	for i := 0; i < 10; i++ {
		in = append(in, g.AddPI("pin"+string(rune('a'+i))))
	}
	g.AddPO("f", g.Or(g.And(in[0], in[3]), g.And(in[5], g.NotGate(in[7]))))
	g.AddPO("g", g.Xor(in[2], g.And(in[4], in[6])))
	return g
}

// checkDegraded asserts the common shape of a degraded result: flagged,
// reasoned, complete (every PO present), serializable.
func checkDegraded(t *testing.T, res *Result, wantPOs int) {
	t.Helper()
	if !res.Degraded {
		t.Fatal("learn against a dying black box did not report Degraded")
	}
	if res.DegradedReason == "" {
		t.Fatal("degraded result carries no reason")
	}
	if res.Circuit == nil || res.Circuit.NumPO() != wantPOs {
		t.Fatalf("degraded circuit incomplete: %v", res.Circuit)
	}
	if !strings.Contains(res.String(), "DEGRADED") {
		t.Fatalf("report hides the degradation: %q", res.String())
	}
	if len(res.Outputs) != wantPOs {
		t.Fatalf("degraded result reports %d outputs, want %d", len(res.Outputs), wantPOs)
	}
}

// faultFreeCalls measures a learn's oracle call count with no faults, in
// the units chaos.Config.FailAfter counts (one call per Eval or batch, not
// per pattern), so the drills below can kill the box at a fixed share of the
// learn however the learner groups its queries.
func faultFreeCalls(t *testing.T, opts Options) int64 {
	t.Helper()
	probe := chaos.Wrap(oracle.FromCircuit(twoOutputGolden()), chaos.Config{})
	if res := Learn(probe, opts); res.Degraded {
		t.Fatalf("fault-free learn degraded: %s", res.DegradedReason)
	}
	return probe.Calls()
}

func TestLearnDegradesOnPermanentDeath(t *testing.T) {
	opts := Options{Seed: 1, SupportR: 64}
	budget := max(1, faultFreeCalls(t, opts)/4)
	o := chaos.Wrap(oracle.FromCircuit(twoOutputGolden()), chaos.Config{FailAfter: budget})
	res := Learn(o, opts)
	checkDegraded(t, res, 2)
	degraded := 0
	for _, or := range res.Outputs {
		if or.Method == MethodDegraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatalf("no output marked MethodDegraded after a death %d calls in", budget)
	}
}

func TestLearnDegradesOnPermanentDeathParallel(t *testing.T) {
	opts := Options{Seed: 1, SupportR: 64, Parallel: 2}
	budget := max(1, faultFreeCalls(t, opts)/4)
	o := chaos.Wrap(oracle.FromCircuit(twoOutputGolden()), chaos.Config{FailAfter: budget})
	res := Learn(o, opts)
	checkDegraded(t, res, 2)
}

// TestLearnKeepsOutputsLearnedBeforeDeath gives the black box enough budget
// to finish the first output before dying: best-so-far means that output
// survives intact, not that everything collapses to constants.
func TestLearnKeepsOutputsLearnedBeforeDeath(t *testing.T) {
	opts := Options{Seed: 1, SupportR: 64}
	budget := faultFreeCalls(t, opts) * 3 / 4

	o := chaos.Wrap(oracle.FromCircuit(twoOutputGolden()), chaos.Config{FailAfter: budget})
	res := Learn(o, opts)
	checkDegraded(t, res, 2)
	intact := 0
	for _, or := range res.Outputs {
		if or.Method != MethodDegraded {
			intact++
		}
	}
	if intact == 0 {
		t.Fatalf("death at 3/4 of the query budget left no output intact: %+v", res.Outputs)
	}
}

// TestLearnDoesNotSwallowOrdinaryPanics: only *oracle.Failure may be
// absorbed as degradation. Any other panic is a bug and must escape.
type panickyOracle struct{ oracle.Oracle }

func (p panickyOracle) Eval(assignment []bool) []bool { panic("learner bug sentinel") }

func TestLearnDoesNotSwallowOrdinaryPanics(t *testing.T) {
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("an ordinary panic was swallowed by degraded-mode handling")
		}
		if s, ok := rec.(string); !ok || s != "learner bug sentinel" {
			t.Fatalf("panic payload changed in flight: %v", rec)
		}
	}()
	g := twoOutputGolden()
	Learn(oracle.ScalarOnly(panickyOracle{oracle.FromCircuit(g)}), Options{Seed: 1, SupportR: 64})
}
