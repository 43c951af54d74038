package main

// The mirror replays core.Learn and opt.Optimize through the layers' public
// functions only, with the same RNG threading and budgets, and records a
// span around every call. It stands in for spans inside the program: when
// its netlist equals the real learn's, its spans split that learn by layer.

import (
	"math/rand"

	"logicregression/internal/aig"
	"logicregression/internal/check"
	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/fbdt"
	"logicregression/internal/opt"
	"logicregression/internal/oracle"
	"logicregression/internal/sop"
	"logicregression/internal/support"
	"logicregression/internal/template"
)

type mirror struct {
	tr       *tracer
	caseName string
	counter  *oracle.Counter
	opts     core.Options
}

// mirrorLearn replays core.Learn's steps 1-4 and its IR check for one case,
// under span root. It returns the circuit before optimization, the query
// count, and the number of template-settled outputs.
func mirrorLearn(tr *tracer, root int, caseName string, o oracle.Oracle, opts core.Options) (*circuit.Circuit, int64, int) {
	m := &mirror{tr: tr, caseName: caseName, counter: oracle.NewCounter(o), opts: opts}
	rng := rand.New(rand.NewSource(opts.Seed))

	sp := tr.begin(root, "template.detect", caseName)
	matches := template.Detect(m.counter, opts.Template, rng)
	tr.end(sp, map[string]int64{"queries": m.counter.Queries()})

	comp := make(map[int]template.CompMatch)
	for _, cm := range matches.Comparators {
		comp[cm.Out] = cm
	}
	lin := make(map[int]template.LinMatch)
	linBit := make(map[int]int)
	for _, lm := range matches.Linear {
		for bit, pos := range lm.OutVec.Ports {
			if _, taken := comp[pos]; bit < lm.Width && !taken {
				lin[pos] = lm
				linBit[pos] = bit
			}
		}
	}

	c := circuit.New()
	piSigs := addPIs(c, o.InputNames())
	linWords := make(map[string]circuit.Word)
	matched := 0
	for po, name := range o.OutputNames() {
		out := tr.begin(root, "core.output", caseName)
		var sig circuit.Signal
		if cm, ok := comp[po]; ok {
			sp := tr.begin(out, "template.synth", caseName)
			sig = cm.Synthesize(c, piSigs)
			tr.end(sp, nil)
			matched++
		} else if lm, ok := lin[po]; ok {
			sp := tr.begin(out, "template.synth", caseName)
			w, ok := linWords[lm.OutVec.Stem]
			if !ok {
				w = lm.Synthesize(c, piSigs)
				linWords[lm.OutVec.Stem] = w
			}
			sig = w[linBit[po]]
			tr.end(sp, nil)
			matched++
		} else if opts.Parallel > 1 {
			// The parallel path seeds one generator per output and learns
			// each output into a scratch circuit that is then copied in.
			prng := rand.New(rand.NewSource(opts.Seed + 0x9E3779B9*int64(po+1)))
			scratch := circuit.New()
			scratch.AddPO(name, m.output(out, scratch, po, addPIs(scratch, o.InputNames()), prng))
			sig = circuit.CopyCone(c, piSigs, scratch, 0)
		} else {
			sig = m.output(out, c, po, piSigs, rng)
		}
		c.AddPO(name, sig)
		tr.end(out, map[string]int64{"po": int64(po)})
	}

	sp = tr.begin(root, "core.verify", caseName)
	err := check.Verify(c)
	tr.end(sp, nil)
	if err != nil {
		// core.Learn panics here; a mirror that got this far has diverged.
		return nil, m.counter.Queries(), matched
	}
	return c, m.counter.Queries(), matched
}

func addPIs(c *circuit.Circuit, names []string) []circuit.Signal {
	sigs := make([]circuit.Signal, len(names))
	for i, name := range names {
		sigs[i] = c.AddPI(name)
	}
	return sigs
}

// output replays steps 3-4 for one output: support identification, then
// the exhaustive or tree learner, cover reduction and factored synthesis.
func (m *mirror) output(parent int, c *circuit.Circuit, po int, piSigs []circuit.Signal, rng *rand.Rand) circuit.Signal {
	tr, name := m.tr, m.caseName
	q := m.counter.Queries()
	sp := tr.begin(parent, "support.identify", name)
	info := support.Identify(m.counter, po, support.Config{R: m.opts.SupportR}, rng)
	tr.end(sp, map[string]int64{"queries": m.counter.Queries() - q, "support": int64(len(info.Support))})
	sup := info.Support
	if len(sup) == 0 {
		return c.Const(info.TruthRatio > 0.5)
	}

	var cover sop.Cover
	var negate bool
	q = m.counter.Queries()
	if len(sup) <= exhaustiveThreshold {
		sp = tr.begin(parent, "fbdt.exhaustive", name)
		res := fbdt.Exhaustive(m.counter, po, sup, rng)
		tr.end(sp, map[string]int64{"queries": m.counter.Queries() - q})
		sp = tr.begin(parent, "sop.reduce", name)
		cover, negate = res.Choose()
	} else {
		sp = tr.begin(parent, "fbdt.build", name)
		res := fbdt.Build(m.counter, po, fbdt.Config{
			R:          treeR,
			Candidates: sup,
			MaxNodes:   m.opts.MaxTreeNodes,
		}, rng)
		counts := map[string]int64{
			"queries":        m.counter.Queries() - q,
			"nodes_expanded": int64(res.Stats.NodesExpanded),
			"approx_leaves":  int64(res.Stats.ApproxLeaves),
		}
		if res.Stats.Exhausted {
			counts["truncated"] = 1
		}
		tr.end(sp, counts)
		sp = tr.begin(parent, "sop.reduce", name)
		onset := reduceCover(res.Onset, res.Offset)
		offset := reduceCover(res.Offset, res.Onset)
		cover, negate = pickSmaller(onset, offset, res.RootTruthRatio)
	}
	tr.end(sp, map[string]int64{"cubes": int64(len(cover))})

	sp = tr.begin(parent, "sop.synth", name)
	sig := sop.SynthesizeFactored(c, cover, piSigs, negate)
	tr.end(sp, nil)
	return sig
}

// reduceCover is core's tree-cover reduction: exact expansion against the
// complementary cover unless the cube-pair work is too large.
func reduceCover(cover, blockers sop.Cover) sop.Cover {
	if len(cover)*len(blockers) > 4_000_000 {
		return sop.Minimize(cover)
	}
	return sop.ExpandAgainst(cover, blockers)
}

// pickSmaller is core's onset/offset choice for tree covers.
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

// optReplay is what replaying opt.Optimize found on one case.
type optReplay struct {
	final        *circuit.Circuit
	rewriteAnds  int
	refactorAnds int
	fraigAnds    int
	fraigSkipped bool
	collapseWon  bool
}

// replayOpt replays opt.Optimize's pass order on c with the seed core.Learn
// gives it and opt's default budgets, one span per pass. Every pass but
// collapse rebuilds the working AIG; each pass's circuit replaces the best
// one when smaller. The replay has no deadline: on the benchmark's cases
// opt ends well inside its 60 s limit.
func replayOpt(tr *tracer, root int, caseName string, c *circuit.Circuit, learnSeed int64) optReplay {
	cfg := opt.Config{Seed: learnSeed + 1}
	var r optReplay
	best := c
	var g *aig.AIG
	pass := func(name string, run func()) {
		sp := tr.begin(root, "opt."+name, caseName)
		run()
		if s := g.ToCircuit(); s.Size() < best.Size() {
			best = s
		}
		tr.end(sp, map[string]int64{"ands": int64(g.NumAnds())})
	}
	pass("strash", func() { g = aig.FromCircuit(c) })
	pass("rewrite", func() { g = opt.Rewrite(g) })
	r.rewriteAnds = g.NumAnds()
	pass("refactor", func() {
		if g.NumAnds() <= refactorBudget {
			g = opt.Refactor(g)
		}
	})
	r.refactorAnds = g.NumAnds()
	r.fraigSkipped = g.NumAnds() > maxFraigNodes
	pass("fraig", func() {
		if !r.fraigSkipped {
			g = opt.Rewrite(opt.Fraig(g, cfg))
		}
	})
	r.fraigAnds = g.NumAnds()

	sp := tr.begin(root, "opt.collapse", caseName)
	if s, ok := opt.Collapse(g, cfg); ok && s.Size() < best.Size() {
		best = s
		r.collapseWon = true
	}
	tr.end(sp, nil)
	r.final = best
	return r
}
