// Package sampling implements the PatternSampling procedure of the paper
// (Algorithm 1) and the random assignment generators behind it.
//
// PatternSampling probes a black-box output with r random assignments per
// candidate input, toggling that input to measure the dependency count D_i
// (how often the output flips), and accumulates the TruthRatio (fraction of
// 1s among sampled output values). Assignments can be constrained by a cube,
// which is how the decision tree samples within a node (Sec. IV-D).
//
// A sweep's 2*r*|Free| queries reach the oracle as one batch: every free
// input's alpha_i/alpha_not_i sub-batches are drawn in per-input order and
// packed densely, at most 2^14 patterns per oracle.EvalOutput call (or one
// sub-batch, when r alone exceeds that), so a sweep costs one call or a few
// instead of two per input, with the same query count and pattern order.
// The sweep reads only the probed output, so a circuit-backed box simulates
// only that output's cone.
//
// Following the paper's observation that some outputs only reveal
// sensitivities under assignments with an uneven ratio of 0s and 1s, the
// generator draws each 64-pattern word from a pool of one-bias ratios
// (Config.Ratios); the default pool mixes the even ratio with several uneven
// ones.
package sampling

import (
	"math/bits"
	"math/rand"

	"logicregression/internal/oracle"
	"logicregression/internal/sop"
)

// DefaultRatios is the combined even/uneven sampling pool of Sec. IV-C.
var DefaultRatios = []float64{0.5, 0.25, 0.75, 0.1, 0.9}

// Config controls PatternSampling.
type Config struct {
	// R is the number of sampled assignments per candidate input.
	// The paper uses 7200 for support identification and 60 inside the
	// decision tree.
	R int
	// Ratios is the pool of P(bit=1) biases; each 64-pattern word is drawn
	// with one ratio from the pool, cycling. Empty means DefaultRatios.
	Ratios []float64
	// Candidates, when non-nil, restricts the probed inputs to this set
	// (cube-bound members are still skipped). The decision tree uses it to
	// probe only the inputs in the identified support S'.
	Candidates []int
}

func (c Config) ratios() []float64 {
	if len(c.Ratios) == 0 {
		return DefaultRatios
	}
	return c.Ratios
}

// Result is the output of PatternSampling.
type Result struct {
	// D maps each input index to its dependency count; constrained inputs
	// (bound by the cube) hold -1.
	D []int
	// Free lists the unconstrained input indices, ascending.
	Free []int
	// TruthRatio is the fraction of 1s among all sampled output values.
	TruthRatio float64
	// Samples is the number of output values observed (2*r*|Free|).
	Samples int
}

// MostSignificant returns the free input with the highest dependency count
// (the paper's \hat{i}) and that count. ok is false when every free input has
// zero dependency count, i.e. the output looks constant under this cube.
func (r Result) MostSignificant() (input, count int, ok bool) {
	best, bestD := -1, 0
	for _, i := range r.Free {
		if r.D[i] > bestD {
			best, bestD = i, r.D[i]
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	return best, bestD, true
}

// Support returns the free inputs with nonzero dependency count, the paper's
// underapproximated support S'.
func (r Result) Support() []int {
	var s []int
	for _, i := range r.Free {
		if r.D[i] > 0 {
			s = append(s, i)
		}
	}
	return s
}

// PatternSampling implements Algorithm 1 for a single output of the oracle.
// out selects the output index; cube constrains every sampled assignment.
func PatternSampling(o oracle.Oracle, out int, cube sop.Cube, cfg Config, rng *rand.Rand) Result {
	n := o.NumInputs()
	res := Result{D: make([]int, n)}
	constrained := make([]bool, n)
	for _, l := range cube {
		constrained[l.Var] = true
		res.D[l.Var] = -1
	}
	if cfg.Candidates != nil {
		inCand := make([]bool, n)
		for _, i := range cfg.Candidates {
			inCand[i] = true
		}
		for i := 0; i < n; i++ {
			if !constrained[i] && inCand[i] {
				res.Free = append(res.Free, i)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if !constrained[i] {
				res.Free = append(res.Free, i)
			}
		}
	}
	if cfg.R <= 0 || len(res.Free) == 0 {
		return res
	}

	// Every free input i contributes two sub-batches of R patterns each,
	// alpha_i (input i forced to 1) then alpha_not_i (forced to 0), drawn in
	// exactly the order of a per-input loop: block-major, inputs within a
	// block, one bias ratio per block. Sub-batch u = 2*g+pol (g the index
	// into Free) is packed densely at pattern offset u*R of the sweep, and
	// the sweep goes to the oracle in calls of whole sub-batches, at most
	// sweepChunk patterns each (one sub-batch when R alone exceeds it).
	r := cfg.R
	ratios := cfg.ratios()
	words := (r + 63) / 64
	per := max(1, sweepChunk/r) // sub-batches per oracle call
	units := 2 * len(res.Free)
	draw := make([]uint64, n*words) // the current input's R patterns, lane layout
	one := make([]uint64, words)    // alpha_i's outputs, kept for alpha_not_i
	got := make([]uint64, words)
	var lanes []uint64
	ones := 0
	ratioIdx := 0
	for u0 := 0; u0 < units; u0 += per {
		cnt := min(per, units-u0)
		m := cnt * r
		bw := oracle.Words(m)
		if cap(lanes) < n*bw {
			lanes = make([]uint64, n*bw)
		}
		lanes = lanes[:n*bw]
		clear(lanes)
		for u := u0; u < u0+cnt; u++ {
			i := res.Free[u/2]
			lane := draw[i*words : (i+1)*words]
			if u%2 == 0 {
				for w := 0; w < words; w++ {
					p := ratios[ratioIdx%len(ratios)]
					ratioIdx++
					for j := 0; j < n; j++ {
						draw[j*words+w] = BiasedWord(rng, p)
					}
					for _, l := range cube {
						if l.Neg {
							draw[l.Var*words+w] = 0
						} else {
							draw[l.Var*words+w] = ^uint64(0)
						}
					}
				}
				for w := range lane {
					lane[w] = ^uint64(0) // alpha_i: input forced to 1
				}
			} else {
				clear(lane) // alpha_not_i: input forced to 0
			}
			at := (u - u0) * r
			for j := 0; j < n; j++ {
				packBits(lanes[j*bw:(j+1)*bw], at, draw[j*words:(j+1)*words], r)
			}
		}
		outLane := oracle.EvalOutput(o, lanes, m, out)
		for u := u0; u < u0+cnt; u++ {
			unpackBits(got, outLane, (u-u0)*r, r)
			if u%2 == 0 {
				copy(one, got)
				continue
			}
			i := res.Free[u/2]
			for w := range got {
				res.D[i] += popcount(one[w] ^ got[w])
				ones += popcount(one[w]) + popcount(got[w])
			}
			res.Samples += 2 * r
		}
	}
	if res.Samples > 0 {
		res.TruthRatio = float64(ones) / float64(res.Samples)
	}
	return res
}

// sweepChunk caps the patterns of one PatternSampling oracle call, bounding
// the lane buffer to |I| * sweepChunk/64 words (as fbdt's exhaustive
// enumeration does) while amortizing per-call overhead over many inputs.
const sweepChunk = 1 << 14

// packBits ORs the low r bits of src (bit k = pattern k) into dst starting
// at bit offset at. dst must be zero over [at, at+r).
func packBits(dst []uint64, at int, src []uint64, r int) {
	for w := 0; w*64 < r; w++ {
		x := src[w] & maskLow(r-w*64)
		p := at + w*64
		sh := uint(p & 63)
		dst[p>>6] |= x << sh
		if sh != 0 && p>>6+1 < len(dst) {
			dst[p>>6+1] |= x >> (64 - sh)
		}
	}
}

// unpackBits copies r bits of src starting at bit offset at into dst (bit k
// = pattern k), clearing dst's tail beyond r.
func unpackBits(dst []uint64, src []uint64, at int, r int) {
	for w := 0; w*64 < r; w++ {
		p := at + w*64
		sh := uint(p & 63)
		x := src[p>>6] >> sh
		if sh != 0 && p>>6+1 < len(src) {
			x |= src[p>>6+1] << (64 - sh)
		}
		dst[w] = x & maskLow(r-w*64)
	}
}

func maskLow(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// fillRandomWords fills one 64-pattern word per input, each bit Bernoulli(p).
func fillRandomWords(rng *rand.Rand, words []uint64, p float64) {
	for i := range words {
		words[i] = BiasedWord(rng, p)
	}
}

// applyCubeWords forces the cube literals across all 64 patterns.
func applyCubeWords(cube sop.Cube, words []uint64) {
	for _, l := range cube {
		if l.Neg {
			words[l.Var] = 0
		} else {
			words[l.Var] = ^uint64(0)
		}
	}
}

// BiasedWord returns a 64-bit word whose bits are independently 1 with
// probability p (quantized to 16 binary digits, q = p*2^16). The
// construction processes the binary expansion of q from its lowest set bit:
// that bit takes a fresh random word, and every higher bit one more, ORed in
// where the bit is 1 (p -> (1+p)/2) and ANDed in where it is 0 (p -> p/2).
// q == 0 draws nothing. The loop is branch-free: a bit's mask m selects OR
// (all ones) or AND (zero).
func BiasedWord(rng *rand.Rand, p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return ^uint64(0)
	}
	q := uint32(p * 65536) // p < 1, so q < 2^16
	if q == 0 {
		return 0
	}
	w := rng.Uint64()
	for bit := bits.TrailingZeros32(q) + 1; bit < 16; bit++ {
		r := rng.Uint64()
		m := -uint64(q >> uint(bit) & 1)
		w = (w | r&m) & (r | m)
	}
	return w
}

// RandomAssignment returns an n-bit assignment with each bit 1 with
// probability p, optionally constrained by cube.
func RandomAssignment(rng *rand.Rand, n int, p float64, cube sop.Cube) []bool {
	a := make([]bool, n)
	for i := range a {
		a[i] = rng.Float64() < p
	}
	cube.Apply(a)
	return a
}

// RandomWords returns one 64-pattern word per input with bias p, constrained
// by cube.
func RandomWords(rng *rand.Rand, n int, p float64, cube sop.Cube) []uint64 {
	words := make([]uint64, n)
	fillRandomWords(rng, words, p)
	applyCubeWords(cube, words)
	return words
}
