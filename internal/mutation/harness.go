package mutation

import (
	"errors"
	"fmt"
	"sort"

	"logicregression/internal/bdd"
	"logicregression/internal/check"
	"logicregression/internal/circuit"
	"logicregression/internal/opt"
	"logicregression/internal/sat"
)

// The verification layers, in the order the harness attributes kills:
// structural checks first (cheapest), then the semantic equivalence stack
// from randomized to complete.
const (
	LayerVerify = "verify" // check.Verify hard invariants
	LayerLint   = "lint"   // new check.Lint findings relative to the original
	LayerSim    = "sim"    // check.EquivCircuits random/exhaustive simulation
	LayerCEC    = "cec"    // SAT-based combinational equivalence (opt.Diagnose)
	LayerBDD    = "bdd"    // canonical BDD comparison (EquivBDD)
)

// LayerOrder is the attribution order for FirstKiller.
var LayerOrder = []string{LayerVerify, LayerLint, LayerSim, LayerCEC, LayerBDD}

// Verdict is one layer's view of one mutant.
type Verdict string

// Layer verdicts. Skip means the layer could not decide (SAT conflict budget,
// BDD node budget) and makes no adequacy claim.
const (
	Kill Verdict = "kill"
	Pass Verdict = "pass"
	Skip Verdict = "skip"
)

// Layers configures the killer harness.
type Layers struct {
	// SimWords is the word count for the random-simulation layer
	// (check.DefaultSimWords when zero).
	SimWords int `json:"sim_words"`
	// SimSeed drives the random simulation patterns.
	SimSeed int64 `json:"sim_seed"`
	// MaxConflicts bounds the SAT conflicts of each CEC check, all outputs'
	// proofs together (opt.Diagnose); 0 = unlimited (complete CEC).
	MaxConflicts int64 `json:"max_conflicts"`
	// BDDBudget bounds the shared BDD manager (default 1<<21 nodes).
	BDDBudget int `json:"bdd_budget"`
}

func (l Layers) withDefaults() Layers {
	if l.SimWords <= 0 {
		l.SimWords = check.DefaultSimWords
	}
	if l.BDDBudget <= 0 {
		l.BDDBudget = 1 << 21
	}
	return l
}

// MutantResult is the full kill record of one injected fault.
type MutantResult struct {
	Fault Fault `json:"fault"`
	// Verdicts maps layer name to that layer's verdict. IR faults carry
	// only the verify verdict (the mutant is not a simulatable DAG).
	Verdicts map[string]Verdict `json:"verdicts"`
	// Changed is the ground truth: the fault altered the Boolean function.
	// Decided by complete CEC, corroborated by BDD when both finish.
	Changed bool `json:"changed"`
	// FirstKiller is the first layer in LayerOrder that killed the mutant,
	// or "" when every layer passed.
	FirstKiller string `json:"first_killer,omitempty"`
	// Escaped: the mutant changed semantics (or corrupted the IR) yet no
	// layer that should catch it did. These are the adequacy failures.
	Escaped bool `json:"escaped,omitempty"`
	// FalseKill: an equivalence layer killed a semantics-preserving
	// mutant — the checker itself is wrong.
	FalseKill bool `json:"false_kill,omitempty"`
	// Inconsistent: two complete equivalence procedures disagreed (e.g.
	// CEC proved equivalence but simulation found a difference). Any such
	// mutant is a bug in one of the checkers.
	Inconsistent bool   `json:"inconsistent,omitempty"`
	Note         string `json:"note,omitempty"`
}

// caseContext caches the per-circuit state shared by every mutant of a
// campaign: the original's lint profile and its BDD build. Reusing one BDD
// manager across a case's mutants is what makes the BDD layer affordable —
// each mutant differs from the original in one site, so its build mostly
// finds its nodes in the shared unique table.
type caseContext struct {
	orig     *circuit.Circuit
	cfg      Layers
	baseLint map[string]int
	bddCK    *bddChecker
}

func newCaseContext(orig *circuit.Circuit, cfg Layers) *caseContext {
	cfg = cfg.withDefaults()
	base := map[string]int{}
	for _, f := range check.Lint(orig) {
		base[f.Code]++
	}
	return &caseContext{
		orig:     orig,
		cfg:      cfg,
		baseLint: base,
		bddCK:    newBDDChecker(orig, cfg.BDDBudget),
	}
}

// RunMutant injects f into orig and runs the mutant through every layer.
// Campaigns over many faults of one circuit should go through
// Report.RunCircuit, which shares the per-case BDD build across mutants.
func RunMutant(orig *circuit.Circuit, f Fault, cfg Layers) MutantResult {
	return newCaseContext(orig, cfg).runMutant(f)
}

func (cc *caseContext) runMutant(f Fault) MutantResult {
	orig, cfg := cc.orig, cc.cfg
	mutant := Apply(orig, f)
	res := MutantResult{Fault: f, Verdicts: map[string]Verdict{}}

	verifyErr := check.Verify(mutant)
	if verifyErr != nil {
		res.Verdicts[LayerVerify] = Kill
	} else {
		res.Verdicts[LayerVerify] = Pass
	}
	if f.IR {
		// IR corruptions are not valid DAGs; simulating them is undefined.
		// Verify is the only layer on the hook.
		res.Changed = true
		res.Escaped = verifyErr == nil
		if verifyErr != nil {
			res.FirstKiller = LayerVerify
		} else {
			res.Note = "IR corruption passed check.Verify"
		}
		return res
	}

	// Lint layer: a kill is a finding profile that got worse — any code
	// whose count exceeds the original circuit's count for that code.
	if lintWorse(cc.baseLint, mutant) {
		res.Verdicts[LayerLint] = Kill
	} else {
		res.Verdicts[LayerLint] = Pass
	}

	// Simulation layer.
	simErr := check.EquivCircuits(orig, mutant, cfg.SimSeed, cfg.SimWords)
	if simErr != nil {
		res.Verdicts[LayerSim] = Kill
	} else {
		res.Verdicts[LayerSim] = Pass
	}

	// SAT CEC layer. A Sat verdict must come with a counterexample that
	// actually distinguishes the circuits under Eval — the harness checks
	// the checker.
	cecVerdict, cex, badPO := opt.Diagnose(orig, mutant, cfg.MaxConflicts)
	cecComplete := true
	switch cecVerdict {
	case sat.Sat:
		res.Verdicts[LayerCEC] = Kill
		if badPO < 0 || orig.Eval(cex)[badPO] == mutant.Eval(cex)[badPO] {
			res.Inconsistent = true
			res.Note = fmt.Sprintf("cec counterexample does not distinguish PO %d", badPO)
		}
	case sat.Unsat:
		res.Verdicts[LayerCEC] = Pass
	default:
		res.Verdicts[LayerCEC] = Skip
		cecComplete = false
	}

	// BDD layer.
	bddComplete := true
	eq, _, bddErr := cc.bddCK.check(mutant)
	switch {
	case errors.Is(bddErr, bdd.ErrBudget):
		res.Verdicts[LayerBDD] = Skip
		bddComplete = false
	case bddErr != nil:
		res.Verdicts[LayerBDD] = Skip
		bddComplete = false
		if res.Note == "" {
			res.Note = "bdd: " + bddErr.Error()
		}
	case eq:
		res.Verdicts[LayerBDD] = Pass
	default:
		res.Verdicts[LayerBDD] = Kill
	}

	// Ground truth from the complete procedures; randomized simulation can
	// only refute equivalence, never certify it.
	switch {
	case cecComplete:
		res.Changed = cecVerdict == sat.Sat
	case bddComplete:
		res.Changed = res.Verdicts[LayerBDD] == Kill
	default:
		res.Changed = res.Verdicts[LayerSim] == Kill
	}

	// Cross-checks between layers.
	if cecComplete && bddComplete && (cecVerdict == sat.Sat) != (res.Verdicts[LayerBDD] == Kill) {
		res.Inconsistent = true
		res.Note = "cec and bdd disagree"
	}
	if !res.Changed && cecComplete && res.Verdicts[LayerSim] == Kill {
		res.Inconsistent = true
		res.Note = "simulation found a difference on a cec-proven-equivalent mutant"
	}
	if f.Preserving {
		if res.Changed {
			res.Inconsistent = true
			res.Note = fmt.Sprintf("%s mutant should preserve semantics but was proven different", f.Kind)
		}
		for _, layer := range []string{LayerSim, LayerCEC, LayerBDD} {
			if res.Verdicts[layer] == Kill {
				res.FalseKill = true
			}
		}
	}

	for _, layer := range LayerOrder {
		if res.Verdicts[layer] == Kill {
			res.FirstKiller = layer
			break
		}
	}
	// Escape: the function changed but no complete equivalence layer
	// caught it. Structural kills (lint) do not count — a wrong circuit
	// must be caught as *wrong*, not merely untidy.
	if res.Changed && res.Verdicts[LayerSim] != Kill &&
		res.Verdicts[LayerCEC] != Kill && res.Verdicts[LayerBDD] != Kill {
		res.Escaped = true
	}
	return res
}

// lintWorse reports whether the mutant's lint profile regressed relative to
// the original's per-code counts: some finding code occurs more often.
func lintWorse(base map[string]int, mutant *circuit.Circuit) bool {
	got := map[string]int{}
	for _, f := range check.Lint(mutant) {
		got[f.Code]++
	}
	for code, n := range got {
		if n > base[code] {
			return true
		}
	}
	return false
}

// CaseReport aggregates one circuit's mutants.
type CaseReport struct {
	Name    string `json:"name"`
	Mutants int    `json:"mutants"`
	Changed int    `json:"changed"`
	Killed  int    `json:"killed"` // changed or IR mutants caught by some layer
	// FirstKills attributes each killed mutant to the first killing layer.
	FirstKills map[string]int `json:"first_kills"`
	// KillsByLayer counts kills per layer independent of order (a mutant
	// killed by sim, cec, and bdd counts once in each).
	KillsByLayer map[string]int `json:"kills_by_layer"`
	Escaped      []MutantResult `json:"escaped,omitempty"`
	FalseKills   []MutantResult `json:"false_kills,omitempty"`
	Inconsistent []MutantResult `json:"inconsistent,omitempty"`
}

// Report is the full circuit-level mutation run.
type Report struct {
	Seed   int64        `json:"seed"`
	Budget int          `json:"budget"`
	Layers Layers       `json:"layers"`
	Cases  []CaseReport `json:"cases"`
	// KillMatrix maps fault kind -> first-killing layer -> count, over all
	// cases. The "none" bucket counts mutants no layer killed: expected for
	// preserving or semantics-neutral faults, an escape otherwise (escapes
	// are additionally listed per case).
	KillMatrix map[Kind]map[string]int `json:"kill_matrix"`
	Totals     Totals                  `json:"totals"`
}

// Totals summarizes a Report.
type Totals struct {
	Mutants      int `json:"mutants"`
	Changed      int `json:"changed"`
	Killed       int `json:"killed"`
	Escaped      int `json:"escaped"`
	FalseKills   int `json:"false_kills"`
	Inconsistent int `json:"inconsistent"`
}

// RunCircuit samples up to budget faults on the named circuit and runs each
// through the harness, appending a CaseReport to r. The per-case fault
// sample derives from seed and the case name, so adding a case does not
// reshuffle the others.
func (r *Report) RunCircuit(name string, c *circuit.Circuit, budget int) {
	faults := Sample(c, r.Seed+int64(stringHash(name)), budget)
	cc := newCaseContext(c, r.Layers)
	cr := CaseReport{
		Name:         name,
		FirstKills:   map[string]int{},
		KillsByLayer: map[string]int{},
	}
	for _, f := range faults {
		res := cc.runMutant(f)
		cr.Mutants++
		if res.Changed {
			cr.Changed++
		}
		if res.FirstKiller != "" {
			cr.FirstKills[res.FirstKiller]++
			if res.Changed || res.Fault.IR {
				cr.Killed++
			}
		}
		for layer, v := range res.Verdicts {
			if v == Kill {
				cr.KillsByLayer[layer]++
			}
		}
		if res.Escaped {
			cr.Escaped = append(cr.Escaped, res)
		}
		if res.FalseKill {
			cr.FalseKills = append(cr.FalseKills, res)
		}
		if res.Inconsistent {
			cr.Inconsistent = append(cr.Inconsistent, res)
		}
		if r.KillMatrix == nil {
			r.KillMatrix = map[Kind]map[string]int{}
		}
		row := r.KillMatrix[f.Kind]
		if row == nil {
			row = map[string]int{}
			r.KillMatrix[f.Kind] = row
		}
		if res.FirstKiller != "" {
			row[res.FirstKiller]++
		} else {
			row["none"]++
		}
	}
	r.Cases = append(r.Cases, cr)
	r.Totals.Mutants += cr.Mutants
	r.Totals.Changed += cr.Changed
	r.Totals.Killed += cr.Killed
	r.Totals.Escaped += len(cr.Escaped)
	r.Totals.FalseKills += len(cr.FalseKills)
	r.Totals.Inconsistent += len(cr.Inconsistent)
}

// EscapeKeys lists every escape as "case/kind@site" strings, sorted — the
// identity format MUTATION_BASELINE.json uses for triaged entries.
func (r *Report) EscapeKeys() []string {
	var keys []string
	for _, cr := range r.Cases {
		for _, e := range cr.Escaped {
			keys = append(keys, fmt.Sprintf("%s/%s", cr.Name, e.Fault))
		}
	}
	sort.Strings(keys)
	return keys
}

// stringHash is a tiny deterministic FNV-1a over the case name, mixed into
// the seed so each case gets an independent but reproducible fault sample.
func stringHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}
