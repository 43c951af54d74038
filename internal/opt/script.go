package opt

// Script runner: optimization pipelines expressed as ABC-style semicolon
// separated pass names, e.g. "strash; rewrite; refactor; fraig; collapse;
// balance". Each pass maps to one of this package's stages; unknown names
// are errors so typos don't silently skip work. Optimize remains the
// one-call default; RunScript is the power-user path (exposed by
// `cmd/optimize -script`).

import (
	"fmt"
	"strings"
	"time"

	"logicregression/internal/aig"
	"logicregression/internal/check"
	"logicregression/internal/circuit"
)

// DefaultScript is the pipeline Optimize runs.
const DefaultScript = "strash; rewrite; refactor; fraig; rewrite; collapse"

// RunScript executes the pass sequence on c and returns the smallest
// functionally equivalent circuit seen after any pass; on a tie in size,
// a balance pass's circuit wins. Pass names:
//
//	strash    structural hashing
//	rewrite   local two-level AND rules
//	refactor  6-input-cut DAG-aware resynthesis
//	fraig     SAT-backed functional reduction
//	collapse  per-output BDD + ISOP resynthesis
//	balance   depth balancing (never grows size)
func RunScript(c *circuit.Circuit, script string, cfg Config) (*circuit.Circuit, error) {
	cfg = cfg.withDefaults()
	deadline := time.Time{}
	if cfg.TimeLimit > 0 {
		deadline = time.Now().Add(cfg.TimeLimit)
	}
	best := c
	g := aig.FromCircuit(c)
	for _, raw := range strings.Split(script, ";") {
		pass := strings.TrimSpace(raw)
		if pass == "" {
			continue
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		switch pass {
		case "strash":
			g = g.Rebuild(nil)
		case "rewrite":
			g = Rewrite(g)
		case "refactor":
			if g.NumAnds() <= refactorBudget {
				g = Refactor(g)
			}
		case "fraig":
			if g.NumAnds() <= maxFraigNodes {
				g = Fraig(g, cfg)
			}
		case "balance":
			g = Balance(g)
		case "collapse":
			if s, ok := Collapse(g, cfg); ok {
				check.Assert("opt/script:collapse", c, s)
				if s.Size() < best.Size() {
					best = s
				}
			}
			continue // collapse yields a circuit, not a new working AIG
		default:
			return nil, fmt.Errorf("opt: unknown pass %q (know strash, rewrite, refactor, fraig, collapse, balance)", pass)
		}
		check.AssertAIG("opt/script:"+pass, c, g)
		// Balancing never shrinks the gate count, so it wins ties, as in
		// Optimize.
		if s := g.ToCircuit(); s.Size() < best.Size() || pass == "balance" && s.Size() == best.Size() {
			best = s
		}
	}
	return best, nil
}
