package opt

// Script runner: the one pass driver. An optimization pipeline is an
// ABC-style semicolon separated list of pass names, e.g. "strash; rewrite;
// fraig; balance". Each pass maps to one of this package's stages; unknown
// names are errors so typos don't silently skip work. Optimize runs
// learnScript on learned circuits; `cmd/optimize` runs DefaultScript or any
// other script.

import (
	"fmt"
	"strings"
	"time"

	"logicregression/internal/aig"
	"logicregression/internal/check"
	"logicregression/internal/circuit"
)

// DefaultScript is cmd/optimize's script for an arbitrary circuit. On
// multi-level netlists such as the built-in cases' generators, refactor and
// collapse win most of its gains (case_1's 1,223 gates go to 284 with them
// and to 694 without).
const DefaultScript = "strash; rewrite; refactor; fraig; collapse"

// learnScript is the script Optimize runs on a learned circuit: DefaultScript
// without refactor and collapse. A learned output is already a factored
// two-level cover or a template's adder or comparator, on which neither pass
// has removed a gate; together they were most of opt's time and memory.
const learnScript = "strash; rewrite; fraig"

// RunScript executes the pass sequence on c and returns the smallest
// functionally equivalent circuit seen after any pass (possibly c itself).
// The first pass works on aig.FromCircuit(c), and the deadline set by
// cfg.TimeLimit is checked before every pass. Pass names:
//
//	strash    structural hashing; a leading strash is the conversion of c
//	rewrite   local two-level AND rules
//	refactor  6-input-cut DAG-aware resynthesis; skipped above
//	          refactorBudget ANDs
//	fraig     SAT-backed functional reduction, then rewrite, as one pass;
//	          skipped above maxFraigNodes ANDs
//	collapse  per-output BDD + ISOP resynthesis; its circuit competes for
//	          best, and the working AIG stays as it was
//	balance   depth balancing of the best circuit so far, which becomes
//	          the working AIG; it wins ties in size
func RunScript(c *circuit.Circuit, script string, cfg Config) (*circuit.Circuit, error) {
	deadline := time.Time{}
	if cfg.TimeLimit > 0 {
		deadline = time.Now().Add(cfg.TimeLimit)
	}
	// Every pass is followed by a debug-gated IR + equivalence assertion
	// against the input circuit (no-op unless LOGICREG_CHECK is set; see
	// internal/check).
	best := c
	g := aig.FromCircuit(c)
	begun := 0
	for _, raw := range strings.Split(script, ";") {
		pass := strings.TrimSpace(raw)
		if pass == "" {
			continue
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		begun++
		switch pass {
		case "strash":
			if begun > 1 { // a leading strash is the conversion above
				g = g.Rebuild(nil)
			}
		case "rewrite":
			g = Rewrite(g)
		case "refactor":
			if g.NumAnds() > refactorBudget {
				continue
			}
			g = Refactor(g)
		case "fraig":
			if g.NumAnds() > maxFraigNodes {
				continue
			}
			g = Fraig(g, cfg)
			check.AssertAIG("opt/fraig", c, g)
			g = Rewrite(g)
		case "collapse":
			if s, ok := Collapse(g, cfg); ok {
				check.Assert("opt/collapse", c, s)
				if s.Size() < best.Size() {
					best = s
				}
			}
			continue
		case "balance":
			g = Balance(aig.FromCircuit(best))
		default:
			return nil, fmt.Errorf("opt: unknown pass %q (know strash, rewrite, refactor, fraig, collapse, balance)", pass)
		}
		check.AssertAIG("opt/"+pass, c, g)
		// Balancing never grows the AND count, so a balanced circuit of
		// equal size replaces the best one: it is no larger and shallower.
		if s := g.ToCircuit(); s.Size() < best.Size() || pass == "balance" && s.Size() == best.Size() {
			best = s
		}
	}
	return best, nil
}
