package template

// Affine (GF(2)-linear) template family — an EXTENSION beyond the paper.
// Functions of the form
//
//	z = b ⊕ x_{i1} ⊕ x_{i2} ⊕ ... ⊕ x_{ik}
//
// are the nemesis of sampling-based decision trees (every variable looks
// maximally significant and no subcube is constant), yet they are exactly
// learnable from O(|I|) queries by solving a linear system over GF(2).
// Screening is cheap: collect |I|+slack samples, solve, and verify the
// candidate on fresh targeted probes.
//
// Detect leaves this family out; core.Learn runs DetectAffine after Detect
// when Options.ExtendedTemplates is set.

import (
	"math/rand"

	"logicregression/internal/circuit"
	"logicregression/internal/gf2"
	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
)

// AffineMatch records z = Const ⊕ (⊕_{i∈Inputs} x_i) for output Out.
type AffineMatch struct {
	Out    int
	Inputs []int // input indices in the parity, ascending
	Const  bool
}

// Predict evaluates the match on an assignment.
func (am AffineMatch) Predict(assignment []bool) bool {
	v := am.Const
	for _, i := range am.Inputs {
		v = v != assignment[i]
	}
	return v
}

// Synthesize builds the parity as an XOR tree.
func (am AffineMatch) Synthesize(c *circuit.Circuit, piSigs []circuit.Signal) circuit.Signal {
	sigs := make([]circuit.Signal, len(am.Inputs))
	for k, i := range am.Inputs {
		sigs[k] = piSigs[i]
	}
	out := c.XorTree(sigs)
	if am.Const {
		out = c.NotGate(out)
	}
	return out
}

// DetectAffine screens every output that m leaves unmatched for a
// GF(2)-affine form. The constant b is folded in as an extra always-one
// variable.
func DetectAffine(o oracle.Oracle, m Matches, cfg Config, rng *rand.Rand) []AffineMatch {
	cfg = cfg.withDefaults()
	skip := m.MatchedOutputs()
	n := o.NumInputs()
	nOut := o.NumOutputs()
	samples := n + 65 // overdetermined: full rank w.h.p. plus slack

	// Shared sample matrix.
	type probe struct {
		in  []bool
		out []bool
	}
	probes := make([]probe, 0, samples)
	for k := 0; k < samples; k++ {
		a := sampling.RandomAssignment(rng, n, 0.5, nil)
		probes = append(probes, probe{in: a, out: o.Eval(a)})
	}

	var matches []AffineMatch
	for po := 0; po < nOut; po++ {
		if skip[po] {
			continue
		}
		sys := gf2.NewSystem(n + 1) // unknowns: coefficients + constant
		for _, p := range probes {
			row := gf2.NewRow(n + 1)
			for i, v := range p.in {
				row.Set(i, v)
			}
			row.Set(n, true) // the affine constant
			sys.AddEquation(row, p.out[po])
		}
		sol, ok := sys.Solve()
		if !ok {
			continue // provably not affine
		}
		am := AffineMatch{Out: po, Const: sol.Get(n)}
		for i := 0; i < n; i++ {
			if sol.Get(i) {
				am.Inputs = append(am.Inputs, i)
			}
		}
		if verifyAffine(o, am, cfg, rng) {
			matches = append(matches, am)
		}
	}
	return matches
}

// verifyAffine checks the candidate on fresh probes across the bias pool —
// an underdetermined system can be consistent by luck, so generalization is
// tested before acceptance.
func verifyAffine(o oracle.Oracle, am AffineMatch, cfg Config, rng *rand.Rand) bool {
	n := o.NumInputs()
	for k := 0; k < cfg.Verify; k++ {
		a := sampling.RandomAssignment(rng, n, cfg.Ratios[k%len(cfg.Ratios)], nil)
		if o.Eval(a)[am.Out] != am.Predict(a) {
			return false
		}
	}
	return true
}
