// Package support implements support identification (Sec. IV-C): estimating
// which primary inputs a black-box output actually depends on, using the
// dependency counts produced by one PatternSampling sweep.
//
// Because the generator is a black box, only an underapproximation S' ⊆ S is
// obtainable (Proposition 1): an input proven relevant by a witness
// assignment pair is in S; absence of a witness under r samples is taken as
// irrelevance. The combined even/uneven sampling pool improves recall on
// outputs that are only sensitive under skewed input distributions.
//
// The sweep issues its 2*r*|I| probe queries through the oracle's batched
// interface (oracle.BatchOracle): identification against a remote or cached
// black box costs a handful of round trips per input instead of one per
// assignment.
package support

import (
	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
)

// Config controls support identification.
type Config struct {
	// R is the number of sampled assignments per input (paper: 7200).
	R int
	// Ratios is the bias pool; empty means sampling.DefaultRatios.
	Ratios []float64
}

// Info is the identification result for one output.
type Info struct {
	// Support is S', ascending input indices with nonzero dependency count.
	Support []int
	// TruthRatio is the observed fraction of 1s.
	TruthRatio float64
}

// Identify estimates the support of oracle output out with one
// PatternSampling sweep over every input.
func Identify(o oracle.Oracle, out int, cfg Config, rng sampling.RNG) Info {
	res := sampling.PatternSampling(o, out, nil, sampling.Config{R: cfg.R, Ratios: cfg.Ratios}, rng)
	return Info{Support: res.Support(), TruthRatio: res.TruthRatio}
}
