package opt

import (
	"testing"

	"logicregression/internal/cases"
	"logicregression/internal/check"
)

// TestPassesPreserveInvariants is the property test backing the debug-gated
// assertions: every optimization pass, run on every built-in benchmark
// circuit, must produce a circuit that satisfies the hard IR invariants and
// stays functionally equivalent to its input. The assertions inside
// RunScript are armed (check.SetEnabled), so any violation panics with the
// offending stage name; the explicit checks below also validate the final
// result the script returns.
func TestPassesPreserveInvariants(t *testing.T) {
	prev := check.SetEnabled(true)
	t.Cleanup(func() { check.SetEnabled(prev) })

	passes := []string{"strash", "rewrite", "refactor", "fraig", "balance", "collapse", DefaultScript}
	cfg := Config{Seed: 1}

	all := cases.All()
	if testing.Short() {
		all = all[:4]
	}
	for _, cs := range all {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			for _, pass := range passes {
				out, err := RunScript(cs.Circuit, pass, cfg)
				if err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				if err := check.Verify(out); err != nil {
					t.Errorf("%s: result violates IR invariants: %v", pass, err)
				}
				if err := check.Equiv(out, 1, 4); err != nil {
					t.Errorf("%s: result fails self-equivalence: %v", pass, err)
				}
				if err := check.EquivCircuits(cs.Circuit, out, 1, 4); err != nil {
					t.Errorf("%s: result diverges from input: %v", pass, err)
				}
			}
		})
	}
}
