// Package fbdt implements the free-binary-decision-tree circuit learning
// procedure of Sec. IV-D (Algorithm 2 of the paper).
//
// The tree is explored in levelized (breadth-first) order. Each node carries
// a cube of already-decided literals; PatternSampling constrained by that
// cube estimates the node function's TruthRatio and the dependency counts of
// the remaining inputs. Nodes whose sampled TruthRatio reaches 0% or 100%
// (within Config.LeafEpsilon, the paper's early-stopping trick) become
// leaves; otherwise the node splits on the most significant input. On
// timeout or node-budget exhaustion, pending nodes become approximate leaves
// by majority value, preserving the paper's anytime behaviour.
//
// Exhaustive implements the "conquering small functions" trick (trick 1):
// it enumerates the whole subfunction truth table over a small identified
// support instead of growing a tree, packs it into words, and takes the
// irredundant onset and offset covers from those words with the
// Minato-Morreale ISOP of isop.go. The caller (core) chooses between the
// two from the support size.
package fbdt

import (
	"math/bits"
	"time"

	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
	"logicregression/internal/sop"
	"logicregression/internal/tt"
)

// Config controls tree construction.
type Config struct {
	// R is the number of sampled patterns per candidate input per node
	// (paper: 60).
	R int
	// Ratios is the sampling bias pool; empty means sampling.DefaultRatios.
	Ratios []float64
	// LeafEpsilon declares a node a leaf when its TruthRatio is <= eps or
	// >= 1-eps. Zero demands exact constancy among samples (the paper's
	// base rule); positive values implement early stopping (trick 3).
	LeafEpsilon float64
	// Candidates restricts split variables, typically to the support S'
	// identified beforehand. Nil means all inputs.
	Candidates []int
	// MaxNodes bounds the number of expanded (split) nodes; 0 = unbounded.
	MaxNodes int
	// Deadline is the wall-clock limit of Algorithm 2; zero means none.
	Deadline time.Time
	// DepthFirst explores the tree depth-first instead of the paper's
	// levelized (breadth-first) order. The paper reports that exploring
	// evenly is more beneficial under truncation — this knob exists to
	// reproduce that comparison (see the E3 ablation).
	DepthFirst bool
}

// probeR is the number of direct samples, one lane word, used to estimate
// a node's TruthRatio when it is settled without a dependency sweep: over
// budget, or with no free candidate input left (the candidate set
// underapproximated the true support).
const probeR = 64

// Stats reports how construction went.
type Stats struct {
	NodesExpanded   int  // nodes split into two children
	Leaves1         int  // exact 1-leaves
	Leaves0         int  // exact 0-leaves
	ApproxLeaves    int  // nodes truncated by timeout/budget, majority-voted
	MaxDepthReached int  // deepest cube length seen
	Exhausted       bool // true when timeout/budget truncated the build
	Exhaustive      bool // true when the exhaustive path was taken
}

// Result carries both cube sets so the caller can apply the paper's
// onset/offset selection (trick 2).
type Result struct {
	Onset  sop.Cover // cubes of leaves with function 1
	Offset sop.Cover // cubes of leaves with function 0
	// RootTruthRatio is the TruthRatio observed at the root, used for the
	// onset/offset choice.
	RootTruthRatio float64
	Stats          Stats
}

// Choose applies trick 2: it returns the smaller cover and whether the
// synthesized circuit must be negated (true when the offset was chosen,
// since the offset cover describes where the function is 0).
func (r Result) Choose() (cover sop.Cover, negate bool) {
	if len(r.Offset) < len(r.Onset) {
		return r.Offset, true
	}
	if len(r.Onset) < len(r.Offset) {
		return r.Onset, false
	}
	// Tie: follow the paper's tendency rule — if the output produces more
	// 1s, specify the offset (the smaller part of the space), else onset.
	if r.RootTruthRatio > 0.5 {
		return r.Offset, true
	}
	return r.Onset, false
}

// Build runs Algorithm 2 for output index out of the oracle.
func Build(o oracle.Oracle, out int, cfg Config, rng sampling.RNG) Result {
	var res Result
	queue := []sop.Cube{nil} // root: empty cube
	first := true
	for len(queue) > 0 {
		var cube sop.Cube
		if cfg.DepthFirst {
			cube = queue[len(queue)-1]
			queue = queue[:len(queue)-1]
		} else {
			cube = queue[0]
			queue = queue[1:]
		}
		if len(cube) > res.Stats.MaxDepthReached {
			res.Stats.MaxDepthReached = len(cube)
		}

		// Budget check happens BEFORE the per-input dependency sampling:
		// once the deadline or node budget is gone, every pending node is
		// settled with a cheap direct probe instead of the full
		// PatternSampling sweep (Algorithm 2's anytime truncation).
		overBudget := (cfg.MaxNodes > 0 && res.Stats.NodesExpanded >= cfg.MaxNodes) ||
			(!cfg.Deadline.IsZero() && time.Now().After(cfg.Deadline))
		if overBudget {
			tr := probeTruthRatio(o, out, cube, rng)
			if first {
				res.RootTruthRatio = tr
				first = false
			}
			if tr > 0.5 {
				res.Onset = append(res.Onset, cube)
			} else {
				res.Offset = append(res.Offset, cube)
			}
			res.Stats.ApproxLeaves++
			res.Stats.Exhausted = true
			continue
		}

		s := sampling.PatternSampling(o, out, cube, sampling.Config{
			R: cfg.R, Ratios: cfg.Ratios, Candidates: cfg.Candidates,
		}, rng)
		tr := s.TruthRatio
		if s.Samples == 0 {
			// Every candidate is bound: estimate the residual function
			// directly under the cube.
			tr = probeTruthRatio(o, out, cube, rng)
		}
		if first {
			res.RootTruthRatio = tr
			first = false
		}

		switch {
		case tr >= 1-cfg.LeafEpsilon:
			res.Onset = append(res.Onset, cube)
			res.Stats.Leaves1++
			continue
		case tr <= cfg.LeafEpsilon:
			res.Offset = append(res.Offset, cube)
			res.Stats.Leaves0++
			continue
		}

		mi, _, ok := s.MostSignificant()
		if !ok {
			// Truncate: majority-vote the node (Algorithm 2 lines 10-13).
			if tr > 0.5 {
				res.Onset = append(res.Onset, cube)
			} else {
				res.Offset = append(res.Offset, cube)
			}
			res.Stats.ApproxLeaves++
			continue
		}

		res.Stats.NodesExpanded++
		queue = append(queue,
			cube.With(sop.Literal{Var: mi, Neg: true}),
			cube.With(sop.Literal{Var: mi, Neg: false}),
		)
	}
	return res
}

// probeTruthRatio samples probeR assignments satisfying the cube, drawn with
// the first bias of the default pool, and returns the fraction of 1s at the
// output. The probeR patterns go to the oracle as one batch.
func probeTruthRatio(o oracle.Oracle, out int, cube sop.Cube, rng sampling.RNG) float64 {
	lanes := sampling.RandomWords(rng, o.NumInputs(), sampling.DefaultRatios[0], cube)
	got := oracle.EvalOutput(o, lanes, probeR, out)[0]
	return float64(bits.OnesCount64(got)) / probeR
}

// Exhaustive implements trick 1: it enumerates all 2^|sup| assignments over
// the support, with every other input held at 0, packs the answers into one
// truth table, and extracts irredundant onset and offset covers from the
// table words with the Minato-Morreale ISOP (the quality step the paper
// gets from ABC's collapse). The covers are, cube for cube, those of the
// BDD ISOP with the inputs ordered as in sup. sup must be strictly
// ascending, or Exhaustive panics before its first query; the caller keeps
// it small (<= ~20), since the query count is 2^|sup|. The enumeration
// draws nothing: the generator argument is unused, and stays only because
// the benchmark's layer-by-layer replay of the learn passes every layer its
// generator, until per-layer timing moves into the program.
func Exhaustive(o oracle.Oracle, out int, sup []int, _ sampling.RNG) Result {
	for b := 1; b < len(sup); b++ {
		if sup[b] <= sup[b-1] {
			panic("fbdt: exhaustive support must be strictly ascending")
		}
	}
	res := Result{Stats: Stats{Exhaustive: true}}
	n := o.NumInputs()
	k := len(sup)
	total := uint64(1) << uint(k)

	// Pattern p assigns bit b of p to input sup[b], and its answer goes to
	// table bit m, the k-bit reversal of p (see isop.go). Both total and the
	// chunk are powers of two, so every chunk holds count patterns and
	// starts at a multiple of 64: bit b < 6 of a pattern is bit b of its
	// lane position (a fixed mask per word), and bit b >= 6 is the same for
	// the whole word. Bits past count stay 0, and so do the rows of inputs
	// outside the support.
	table := make([]uint64, max(1, total/64))
	ones := 0
	count := min(total, exhaustiveChunk)
	w := oracle.Words(int(count))
	lanes := make([]uint64, n*w)
	for base := uint64(0); base < total; base += count {
		for b, in := range sup {
			row := lanes[in*w : (in+1)*w]
			for i := range row {
				switch {
				case b < tt.MaxVars:
					row[i] = uint64(tt.Var(b))
				case (base+64*uint64(i))>>uint(b)&1 == 1:
					row[i] = ^uint64(0)
				default:
					row[i] = 0
				}
			}
			if r := count % 64; r != 0 {
				row[w-1] &= 1<<r - 1
			}
		}
		got := oracle.EvalOutput(o, lanes, int(count), out)
		for i, word := range got {
			if r := count % 64; r != 0 {
				word &= 1<<r - 1
			}
			ones += bits.OnesCount64(word)
			for ; word != 0; word &= word - 1 {
				p := base + 64*uint64(i) + uint64(bits.TrailingZeros64(word))
				m := bits.Reverse64(p) >> (64 - k)
				table[m/64] |= 1 << (m % 64)
			}
		}
	}
	// Below six inputs the table repeats across its one word.
	for s := total; s < 64; s *= 2 {
		table[0] |= table[0] << s
	}
	res.RootTruthRatio = float64(ones) / float64(total)
	res.Onset, res.Offset = isopCovers(table, sup)
	res.Stats.Leaves1 = len(res.Onset)
	res.Stats.Leaves0 = len(res.Offset)
	return res
}

// exhaustiveChunk is the number of patterns per oracle batch when
// enumerating exhaustive truth tables, bounding the lane buffer to
// |I| * chunk/64 words while still amortizing per-query overhead.
const exhaustiveChunk = 1 << 14
