package core

// Counterexample-guided refinement — an EXTENSION beyond the paper. The
// dominant error mode of the paper's pipeline is an underapproximated
// support S' ⊊ S: PatternSampling misses an input the output genuinely
// depends on, the exhaustive/tree learner then models only a slice of the
// function, and the learned output is wrong wherever the missed input
// deviates from the slice value.
//
// Refinement closes the loop: the learned circuit is simulated against the
// black box on fresh random patterns; for every mismatching output, the
// mismatch witnesses are probed input-by-input to discover the missed
// support variables (each witness is one flip away from exposing them), the
// support is augmented, and the output is relearned. Rounds repeat until
// clean or the budget ends.

import (
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"logicregression/internal/bitvec"
	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
)

const (
	refinePatterns        = 8192 // self-check patterns per round
	maxWitnessesPerOutput = 16
)

// refine runs the refinement rounds in place on the learned circuit.
// It returns the number of outputs that were relearned.
func refine(c *circuit.Circuit, counter *oracle.Counter, reports []OutputReport,
	supports map[int][]int, opts Options, deadline time.Time, rng *rand.Rand) int {

	relearned := 0
	for round := 0; round < opts.RefineRounds; round++ {
		if cancelled(&opts) {
			return relearned
		}
		witnesses := findMismatches(c, counter, refinePatterns, rng)
		if len(witnesses) == 0 {
			return relearned
		}
		// Relearning consumes the shared rng (and races the deadline), so
		// the outputs must be visited in a fixed order for byte-identical
		// reruns — not in witness-map order.
		pos := make([]int, 0, len(witnesses))
		for po := range witnesses {
			pos = append(pos, po)
		}
		sort.Ints(pos)
		for _, po := range pos {
			ws := witnesses[po]
			if !deadline.IsZero() && time.Now().After(deadline) {
				return relearned
			}
			if cancelled(&opts) {
				return relearned
			}
			// Augment the support with inputs whose toggle flips the
			// output at a witness.
			sup := supports[po]
			inSup := make(map[int]bool, len(sup))
			for _, i := range sup {
				inSup[i] = true
			}
			grew := false
			for _, w := range ws {
				// One batch per witness: the base assignment plus one
				// single-bit toggle per candidate input. Which inputs are
				// probed depends only on inSup at the start of the witness,
				// so blocking the queries preserves the scalar behaviour
				// (and the query count) exactly.
				var probes []int
				for i := 0; i < counter.NumInputs(); i++ {
					if !inSup[i] {
						probes = append(probes, i)
					}
				}
				res := toggleProbe(counter, w, probes)
				base := res[0].bit(po)
				for k, i := range probes {
					if res[k+1].bit(po) != base {
						inSup[i] = true
						sup = append(sup, i)
						grew = true
					}
				}
			}
			if !grew && reports[po].Method != MethodConstant {
				// The support already covers the mismatch: the learner
				// approximated inside its budget. Relearning with the
				// same support would reproduce the same answer; skip.
				continue
			}
			sort.Ints(sup)
			supports[po] = sup

			piSigs := make([]circuit.Signal, c.NumPI())
			for i := 0; i < c.NumPI(); i++ {
				piSigs[i] = c.PISignal(i)
			}
			sig, rep := learnWithSupport(c, counter, po, piSigs, sup, opts, deadline, rng)
			rep.Name = reports[po].Name
			rep.Refined = true
			reports[po] = rep
			c.SetPODriver(po, sig)
			relearned++
		}
		report(&opts, Progress{Phase: PhaseRefine, Output: c.NumPO(), Total: c.NumPO()})
	}
	return relearned
}

// refineChunk is the number of self-check patterns per oracle batch; a
// multiple of 64 so the per-block bias-ratio schedule is unaffected.
const refineChunk = 1 << 13

// patternBits is a view of one pattern's outputs within batch result lanes.
type patternBits struct {
	lanes []bitvec.Word
	w     int // words per lane
	k     int // pattern index
}

func (p patternBits) bit(po int) bool {
	return p.lanes[po*p.w+p.k/64]>>uint(p.k%64)&1 == 1
}

// toggleProbe evaluates the base assignment plus one single-input toggle per
// entry of probes in a single batch query, returning one result view per
// pattern, base first. The query count matches the scalar probe loop it
// replaces: 1 + len(probes).
func toggleProbe(o oracle.Oracle, base []bool, probes []int) []patternBits {
	n := len(base)
	cnt := 1 + len(probes)
	w := oracle.Words(cnt)
	lanes := make([]bitvec.Word, n*w)
	for j := 0; j < n; j++ {
		if base[j] {
			for k := 0; k < cnt; k++ {
				lanes[j*w+k/64] |= 1 << uint(k%64)
			}
		}
	}
	for k, i := range probes {
		p := k + 1
		lanes[i*w+p/64] ^= 1 << uint(p%64)
	}
	res := oracle.AsBatch(o).EvalBatch(lanes, cnt)
	out := make([]patternBits, cnt)
	for k := range out {
		out[k] = patternBits{lanes: res, w: w, k: k}
	}
	return out
}

// findMismatches simulates the learned circuit against the oracle on whole
// batches of fresh patterns and returns up to maxWitnessesPerOutput
// mismatching assignments per output.
func findMismatches(c *circuit.Circuit, counter *oracle.Counter, patterns int, rng *rand.Rand) map[int][][]bool {
	n := c.NumPI()
	out := make(map[int][][]bool)
	ratios := sampling.DefaultRatios
	learnedOracle := oracle.FromCircuit(c)
	for done := 0; done < patterns; done += refineChunk {
		cnt := min(patterns-done, refineChunk)
		w := oracle.Words(cnt)
		lanes := make([]uint64, n*w)
		for b := 0; b < w; b++ {
			words := sampling.RandomWords(rng, n, ratios[(done/64+b)%len(ratios)], nil)
			for j, x := range words {
				lanes[j*w+b] = x
			}
		}
		golden := counter.EvalBatch(lanes, cnt)
		learned := learnedOracle.EvalBatch(lanes, cnt)
		for po := 0; po < c.NumPO(); po++ {
			for b := 0; b < w; b++ {
				diff := golden[po*w+b] ^ learned[po*w+b]
				if batch := cnt - b*64; batch < 64 {
					diff &= 1<<uint(batch) - 1
				}
				for diff != 0 {
					k := bits.TrailingZeros64(diff)
					diff &= diff - 1
					if len(out[po]) >= maxWitnessesPerOutput {
						break
					}
					a := make([]bool, n)
					for i := 0; i < n; i++ {
						a[i] = lanes[i*w+b]>>uint(k)&1 == 1
					}
					out[po] = append(out[po], a)
				}
			}
		}
	}
	return out
}
