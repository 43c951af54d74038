// Package core implements the paper's five-step circuit-learning pipeline
// (Fig. 1): name based grouping, template matching, support identification,
// decision-tree based circuit construction, and circuit optimization.
//
// Each primary output is learned independently (the problem decomposes per
// output); template-matched outputs are synthesized directly, outputs with
// small identified support are conquered exhaustively, and the rest go
// through the FBDT engine with onset/offset cover selection. The final
// netlist is post-optimized by the opt pipeline.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"logicregression/internal/check"
	"logicregression/internal/circuit"
	"logicregression/internal/fbdt"
	"logicregression/internal/names"
	"logicregression/internal/opt"
	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
	"logicregression/internal/sop"
	"logicregression/internal/support"
	"logicregression/internal/template"
)

// Options configures the learner. The zero value gives paper-flavoured
// defaults scaled for interactive runs; the paper's own constants are noted
// per field.
type Options struct {
	// Seed makes the whole learn reproducible.
	Seed int64
	// TimeLimit bounds the entire learn including optimization
	// (paper: 2700s). Zero means unlimited.
	TimeLimit time.Duration
	// SupportR is the PatternSampling count for support identification
	// (paper: 7200). Default 2048.
	SupportR int
	// TreeR is the per-node PatternSampling count inside the decision
	// tree (paper: 60). Default 60.
	TreeR int
	// LeafEpsilon is the early-stopping TruthRatio deviation (Sec. IV-D
	// trick 3). Default 0 (exact).
	LeafEpsilon float64
	// ExhaustiveThreshold is the small-function support bound (trick 1).
	// Default 18, the paper's value: 2^18 queries are answered in 4096
	// word-parallel evaluations.
	ExhaustiveThreshold int
	// MaxTreeNodes bounds node expansions per output tree (0 = unlimited).
	MaxTreeNodes int
	// Ratios overrides the sampling bias pool.
	Ratios []float64
	// DisablePreprocessing turns off steps 1-2 (grouping + templates),
	// the ablation of Sec. V.
	DisablePreprocessing bool
	// DisableOptimization turns off step 5.
	DisableOptimization bool
	// HiddenCompression additionally hunts for non-observable comparator
	// subcircuits and learns through the compressed input space
	// (Sec. IV-B1, Example 2).
	HiddenCompression bool
	// AlwaysOnset disables the onset/offset choice (trick 2 ablation):
	// the onset cover is always used.
	AlwaysOnset bool
	// DepthFirstTree explores decision trees depth-first instead of the
	// paper's levelized order (exploration-order ablation).
	DepthFirstTree bool
	// ExtendedTemplates additionally screens the outputs the paper's two
	// template families leave unmatched for a GF(2)-affine form (an
	// extension beyond the paper; see internal/template/affine.go).
	ExtendedTemplates bool
	// RefineRounds enables counterexample-guided refinement (an extension
	// beyond the paper; see refine.go): after learning, the circuit is
	// checked against the black box and mismatching outputs are relearned
	// with their support augmented from the mismatch witnesses. 0 = off.
	RefineRounds int
	// Parallel learns non-template outputs with this many concurrent
	// workers (a library extension — the contest forbade parallelism, so
	// <= 1 keeps the paper-faithful sequential path). The oracle must be
	// safe for concurrent Eval calls.
	Parallel int
	// Progress, when set, receives a checkpoint event at each output
	// boundary of the learn (see progress.go). Handlers run synchronously
	// on the learner's goroutine and must not block. Installing a handler
	// never changes the learning trajectory: a learn with Progress set is
	// byte-identical to one without.
	Progress func(Progress)
	// Cancel, when non-nil, is watched at output boundaries: closing the
	// channel makes the learn finish the output in flight, emit the
	// remaining outputs as constants marked MethodCanceled, skip
	// refinement and optimization, and return with Result.Canceled set.
	// Close the channel to cancel — a one-shot send would be consumed by a
	// single boundary check and later checks would miss it.
	Cancel <-chan struct{}
	// MemoizeQueries caches black-box responses by assignment in a bounded
	// LRU (oracle.Memo). Worth it when queries are expensive (e.g. a
	// remote iogen); batched queries stay batched — the cache forwards
	// only its misses to the black box, as one batch.
	MemoizeQueries bool
	// Template configures template detection.
	Template template.Config
}

func (o Options) withDefaults() Options {
	if o.SupportR <= 0 {
		o.SupportR = 2048
	}
	if o.TreeR <= 0 {
		o.TreeR = 60
	}
	if o.ExhaustiveThreshold <= 0 {
		o.ExhaustiveThreshold = 18
	}
	return o
}

// Method records how an output was learned.
type Method string

// Learning methods per output.
const (
	MethodConstant   Method = "constant"
	MethodComparator Method = "template-comparator"
	MethodLinear     Method = "template-linear"
	MethodExhaustive Method = "exhaustive"
	MethodTree       Method = "tree"
	MethodCompressed Method = "tree-compressed"
	// MethodAffine is the extended GF(2)-parity family (extension).
	MethodAffine Method = "template-affine"
	// MethodDegraded marks an output the learner could not finish because
	// the black box died permanently mid-learn; it is emitted as a
	// constant so the netlist stays well-formed.
	MethodDegraded Method = "degraded"
	// MethodCanceled marks an output skipped because the learn was
	// cancelled (Options.Cancel) before reaching it; like MethodDegraded
	// it is emitted as a constant so the netlist stays well-formed.
	MethodCanceled Method = "canceled"
)

// OutputReport describes one learned output.
type OutputReport struct {
	Name       string
	Method     Method
	Support    int  // |S'| (0 for template/constant outputs)
	Cubes      int  // cover size for SOP-built outputs
	Negated    bool // offset cover chosen
	Truncated  bool // tree hit a budget/deadline
	ApproxLeaf int  // majority-voted leaves
	Refined    bool // relearned by counterexample-guided refinement
}

// Result is the outcome of a learn.
type Result struct {
	// Circuit is the learned netlist, with the golden PI/PO names in the
	// golden order.
	Circuit *circuit.Circuit
	// Outputs describes how each output was learned.
	Outputs []OutputReport
	// Queries is the number of black-box queries issued.
	Queries int64
	// Elapsed is the wall-clock learning time.
	Elapsed time.Duration
	// SizeBeforeOpt and Size are the 2-input gate counts before and after
	// optimization.
	SizeBeforeOpt int
	Size          int
	// TemplateMatches counts outputs settled by preprocessing.
	TemplateMatches int
	// Degraded is set when the black box died permanently mid-learn: the
	// circuit is the best-so-far result (outputs learned before the death
	// are intact, the rest are constants marked MethodDegraded) instead of
	// a crash.
	Degraded bool
	// DegradedReason is the transport error that killed the run.
	DegradedReason string
	// Canceled is set when Options.Cancel fired mid-learn: the circuit is
	// partial (unreached outputs are constants marked MethodCanceled) and
	// unoptimized. Rerun with the same seed and options to resume — over a
	// memoized oracle the rerun replays the paid queries from cache.
	Canceled bool
}

// catchFailure runs f and returns the error of a *oracle.Failure panic — the
// typed payload strict oracle adapters throw on permanent transport failure
// — raised inside it. Any other panic is a bug and keeps unwinding.
func catchFailure(f func()) (err error) {
	defer oracle.CatchFailure(&err)
	f()
	return nil
}

// degrade records a permanent black-box death on the result (first reason
// wins).
func (r *Result) degrade(err error) {
	if !r.Degraded {
		r.Degraded = true
		r.DegradedReason = err.Error()
	}
}

// Learn runs the full pipeline against the black box.
func Learn(o oracle.Oracle, opts Options) *Result {
	opts = opts.withDefaults()
	start := time.Now()
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	// One generator for the whole learn. The sweeps read it in bulk; the
	// template detectors, which need *rand.Rand's other methods, draw from
	// the same stream through rng.
	src := sampling.NewSource(opts.Seed)
	rng := rand.New(src)
	var learnFrom oracle.Oracle = o
	if opts.MemoizeQueries {
		if _, already := o.(*oracle.Memo); !already {
			learnFrom = oracle.NewMemo(o)
		}
	}
	counter := oracle.NewCounter(learnFrom)

	res := &Result{}
	nOut := o.NumOutputs()

	// Steps 1-2: name based grouping + template matching. A black box that
	// dies this early degrades the whole run: no template is trusted and
	// every output falls through to the (equally dead) learner below,
	// which emits constants.
	var matches template.Matches
	if !opts.DisablePreprocessing {
		if f := catchFailure(func() {
			matches = template.Detect(counter, opts.Template, rng)
			if opts.ExtendedTemplates {
				matches.Affine = template.DetectAffine(counter, matches, opts.Template, rng)
			}
		}); f != nil {
			res.degrade(f)
			matches = template.Matches{}
		}
	}
	report(&opts, Progress{Phase: PhaseTemplates, Total: nOut})
	templates := templateTable(matches, nOut)

	// The output circuit shares one PI per golden input.
	c := circuit.New()
	piSigs := make([]circuit.Signal, o.NumInputs())
	for i, name := range o.InputNames() {
		piSigs[i] = c.AddPI(name)
	}
	// Synthesized linear adders, one per match, shared by its bits.
	words := make(map[string]circuit.Word)

	outNames := o.OutputNames()
	inG := names.Group(o.InputNames())
	supports := make(map[int][]int)

	// Library extension: learn the non-template outputs concurrently.
	var parallelResults map[int]outputResult
	if opts.Parallel > 1 {
		var jobs []outputJob
		for po := 0; po < nOut; po++ {
			if templates[po].method == "" {
				jobs = append(jobs, outputJob{po: po, name: outNames[po]})
			}
		}
		parallelResults = learnOutputsParallel(counter, jobs, inG, opts, deadline)
	}

	for po := 0; po < nOut; po++ {
		rep := OutputReport{Name: outNames[po]}
		var sig circuit.Signal
		var sup []int

		if !res.Canceled && cancelled(&opts) {
			res.Canceled = true
		}
		switch {
		case res.Canceled:
			// Cancelled before reaching this output: emit a placeholder
			// constant so the netlist stays well-formed. The resume path
			// re-runs the whole learn (deterministic, memo-backed), so
			// nothing done here is load-bearing.
			sig = c.Const(false)
			rep.Method = MethodCanceled
		case templates[po].method != "":
			sig = templates[po].synthesize(c, piSigs, words)
			rep.Method = templates[po].method
			res.TemplateMatches++
		default:
			if r, ok := parallelResults[po]; ok {
				if r.failure != nil {
					res.degrade(r.failure)
					sig = c.Const(false)
					rep.Method = MethodDegraded
				} else {
					sig = circuit.CopyCone(c, piSigs, r.scratch, 0)
					rep, sup = r.rep, r.sup
				}
			} else if res.Degraded {
				// The black box is already known dead: don't waste the
				// remaining outputs on queries that cannot succeed.
				sig = c.Const(false)
				rep.Method = MethodDegraded
			} else if f := catchFailure(func() {
				sig, rep, sup = learnOutput(c, counter, po, piSigs, inG, opts, deadline, src)
			}); f != nil {
				res.degrade(f)
				sig = c.Const(false)
				rep = OutputReport{Method: MethodDegraded}
			}
			rep.Name = outNames[po]
		}
		c.AddPO(outNames[po], sig)
		supports[po] = sup
		res.Outputs = append(res.Outputs, rep)
		report(&opts, Progress{Phase: PhaseOutput, Output: po + 1, Total: nOut, Name: outNames[po]})
	}

	if opts.RefineRounds > 0 && !res.Degraded && !res.Canceled {
		// A death mid-refinement keeps the current circuit: every
		// SetPODriver so far was a completed improvement.
		if f := catchFailure(func() {
			refine(c, counter, res.Outputs, supports, opts, deadline, src)
		}); f != nil {
			res.degrade(f)
		}
		// A cancel that lands mid-refinement must not masquerade as a
		// completed learn: mark it so the caller knows to resume.
		if cancelled(&opts) {
			res.Canceled = true
		}
	}

	res.SizeBeforeOpt = c.Size()
	// The learned IR must satisfy the hard invariants unconditionally — a
	// malformed circuit here is a pipeline bug, not bad input. The costlier
	// cross-implementation equivalence check (circuit vs AIG vs truth
	// table) is debug-gated via LOGICREG_CHECK.
	if err := check.Verify(c); err != nil {
		panic("core: learned circuit fails IR verification: " + err.Error())
	}
	if check.Enabled() {
		if err := check.Equiv(c, opts.Seed, 0); err != nil {
			panic("core: learned circuit: " + err.Error())
		}
	}
	// 60 seconds is the paper's limit for opt; a TimeLimit cuts it to what
	// is left of the learn's, and a deadline already past skips opt.
	optLimit := 60 * time.Second
	if !deadline.IsZero() {
		optLimit = min(optLimit, time.Until(deadline))
	}
	if !opts.DisableOptimization && !res.Canceled && optLimit > 0 {
		report(&opts, Progress{Phase: PhaseOptimize, Output: nOut, Total: nOut})
		c = opt.Optimize(c, opt.Config{Seed: opts.Seed + 1, TimeLimit: optLimit})
		if err := check.Verify(c); err != nil {
			panic("core: optimized circuit fails IR verification: " + err.Error())
		}
	}
	res.Circuit = c
	res.Size = c.Size()
	res.Queries = counter.Queries()
	res.Elapsed = time.Since(start)
	report(&opts, Progress{Phase: PhaseDone, Output: nOut, Total: nOut})
	return res
}

// A poTemplate is the template match that settles one PO (method "" for
// none). Comparators and affine parities synthesize the PO's own signal; a
// linear match synthesizes its whole bus once, cached under key, and the PO
// takes its bit.
type poTemplate struct {
	method Method
	signal func(*circuit.Circuit, []circuit.Signal) circuit.Signal
	word   func(*circuit.Circuit, []circuit.Signal) circuit.Word
	key    string
	bit    int
}

// templateTable maps every PO to the template that settles it. Precedence
// is comparator, then linear, then affine; within one kind a later match
// for the same PO replaces an earlier one.
func templateTable(m template.Matches, nOut int) []poTemplate {
	table := make([]poTemplate, nOut)
	set := func(po int, t poTemplate) {
		if cur := table[po].method; cur == "" || cur == t.method {
			table[po] = t
		}
	}
	for _, cm := range m.Comparators {
		set(cm.Out, poTemplate{method: MethodComparator, signal: cm.Synthesize})
	}
	for _, lm := range m.Linear {
		for bit, pos := range lm.OutVec.Ports {
			if bit < lm.Width {
				set(pos, poTemplate{method: MethodLinear, word: lm.Synthesize, key: "lin:" + lm.OutVec.Stem, bit: bit})
			}
		}
	}
	for _, am := range m.Affine {
		set(am.Out, poTemplate{method: MethodAffine, signal: am.Synthesize})
	}
	return table
}

// synthesize builds the PO's signal in c, building a bus on its first bit
// and reusing it, through words, for the rest.
func (t poTemplate) synthesize(c *circuit.Circuit, piSigs []circuit.Signal, words map[string]circuit.Word) circuit.Signal {
	if t.word == nil {
		return t.signal(c, piSigs)
	}
	w, ok := words[t.key]
	if !ok {
		w = t.word(c, piSigs)
		words[t.key] = w
	}
	return w[t.bit]
}

// learnOutput runs steps 3-4 for one output: support identification, then
// either exhaustive enumeration, compressed-tree learning, or the FBDT.
// It returns the learned signal, the report, and the identified support.
func learnOutput(c *circuit.Circuit, counter *oracle.Counter, po int, piSigs []circuit.Signal,
	inG names.Grouping, opts Options, deadline time.Time, src *sampling.Source) (circuit.Signal, OutputReport, []int) {

	// Step 3: support identification.
	info := support.Identify(counter, po, support.Config{R: opts.SupportR, Ratios: opts.Ratios}, src)

	if len(info.Support) == 0 {
		rep := OutputReport{Method: MethodConstant}
		return c.Const(info.TruthRatio > 0.5), rep, nil
	}

	// Optional: hidden comparator compression when the support spans
	// exactly-two grouped vectors plus other inputs.
	if opts.HiddenCompression && !opts.DisablePreprocessing {
		if sig, crep, ok := tryCompressed(c, counter, po, piSigs, inG, info.Support, opts, deadline, src); ok {
			return sig, crep, info.Support
		}
	}

	sig, rep := learnWithSupport(c, counter, po, piSigs, info.Support, opts, deadline, src)
	return sig, rep, info.Support
}

// learnWithSupport runs step 4 (exhaustive or tree) for one output with an
// explicitly given candidate support. The refinement loop reuses it after
// augmenting the support from mismatch witnesses.
func learnWithSupport(c *circuit.Circuit, counter *oracle.Counter, po int, piSigs []circuit.Signal,
	sup []int, opts Options, deadline time.Time, src *sampling.Source) (circuit.Signal, OutputReport) {

	rep := OutputReport{Support: len(sup)}

	// Trick 1: conquer small functions exhaustively.
	if len(sup) <= opts.ExhaustiveThreshold {
		res := fbdt.Exhaustive(counter, po, sup, src)
		cover, negate := chooseCover(res, opts)
		rep.Method = MethodExhaustive
		rep.Cubes = len(cover)
		rep.Negated = negate
		return sop.SynthesizeFactored(c, cover, piSigs, negate), rep
	}

	// Step 4: FBDT construction.
	res := fbdt.Build(counter, po, fbdt.Config{
		R:           opts.TreeR,
		Ratios:      opts.Ratios,
		LeafEpsilon: opts.LeafEpsilon,
		Candidates:  sup,
		MaxNodes:    opts.MaxTreeNodes,
		Deadline:    deadline,
		DepthFirst:  opts.DepthFirstTree,
	}, src)
	// The tree's leaf cubes partition the space, so each cover can be
	// expanded exactly against the other before minimization (the EXPAND
	// step ABC's two-level engine would perform). On very large truncated
	// trees the quadratic cube-pair work isn't worth it; plain reduction
	// keeps the anytime behaviour.
	reduce := func(cover, blockers sop.Cover) sop.Cover {
		if len(cover)*len(blockers) > 4_000_000 {
			return sop.Minimize(cover)
		}
		return sop.ExpandAgainst(cover, blockers)
	}
	onset := reduce(res.Onset, res.Offset)
	cover, negate := onset, false
	if !opts.AlwaysOnset {
		offset := reduce(res.Offset, res.Onset)
		cover, negate = pickSmaller(onset, offset, res.RootTruthRatio)
	}
	rep.Method = MethodTree
	rep.Cubes = len(cover)
	rep.Negated = negate
	rep.Truncated = res.Stats.Exhausted
	rep.ApproxLeaf = res.Stats.ApproxLeaves
	return sop.SynthesizeFactored(c, cover, piSigs, negate), rep
}

func chooseCover(res fbdt.Result, opts Options) (sop.Cover, bool) {
	if opts.AlwaysOnset {
		return res.Onset, false
	}
	return res.Choose()
}

func pickSmaller(onset, offset sop.Cover, rootTruth float64) (sop.Cover, bool) {
	switch {
	case len(offset) < len(onset):
		return offset, true
	case len(onset) < len(offset):
		return onset, false
	case rootTruth > 0.5:
		return offset, true
	default:
		return onset, false
	}
}

// tryCompressed hunts for a hidden comparator over vector pairs inside the
// support and, when found, learns the output over the compressed input
// space, synthesizing the delegate as the comparator subcircuit.
func tryCompressed(c *circuit.Circuit, counter *oracle.Counter, po int, piSigs []circuit.Signal,
	inG names.Grouping, sup []int, opts Options, deadline time.Time, src *sampling.Source) (circuit.Signal, OutputReport, bool) {

	supSet := make(map[int]bool, len(sup))
	for _, s := range sup {
		supSet[s] = true
	}
	// Candidate vectors: fully inside the support.
	var cand []names.Vector
	for _, v := range inG.Vectors {
		all := true
		for _, p := range v.Ports {
			if !supSet[p] {
				all = false
				break
			}
		}
		if all && v.Width() <= 64 {
			cand = append(cand, v)
		}
	}
	rng := rand.New(src)
	for i := 0; i < len(cand); i++ {
		for j := i + 1; j < len(cand); j++ {
			hm, ok := template.DetectHidden(counter, cand[i], cand[j], 3, opts.Template, rng)
			if !ok {
				continue
			}
			co, ok := template.NewCompressed(counter, hm.CompMatch, rng)
			if !ok {
				continue
			}
			coCounter := oracle.NewCounter(co)
			info := support.Identify(coCounter, po, support.Config{R: opts.SupportR, Ratios: opts.Ratios}, src)
			// Map compressed variables to signals: the delegate becomes
			// the bare predicate subcircuit (the observation polarity of
			// the hidden match concerns the PO, not the delegate).
			cm := hm.CompMatch
			cm.Negated = false
			delegateSig := cm.Synthesize(c, piSigs)
			vars := make([]circuit.Signal, co.NumInputs())
			for v := range vars {
				vars[v] = co.VarSignal(v, piSigs, delegateSig)
			}
			sig, rep := learnWithSupport(c, coCounter, po, vars, info.Support, opts, deadline, src)
			rep.Method = MethodCompressed
			return sig, rep, true
		}
	}
	return 0, OutputReport{}, false
}

// String renders a result summary.
func (r *Result) String() string {
	s := fmt.Sprintf("size=%d (pre-opt %d), queries=%d, templates=%d/%d, elapsed=%s",
		r.Size, r.SizeBeforeOpt, r.Queries, r.TemplateMatches, len(r.Outputs), r.Elapsed.Round(time.Millisecond))
	if r.Degraded {
		s += fmt.Sprintf(" DEGRADED (%s)", r.DegradedReason)
	}
	if r.Canceled {
		s += " CANCELED"
	}
	return s
}
