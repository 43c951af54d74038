package main

import (
	"fmt"
	"io"
	"os"
	"syscall"

	"logicregression/internal/core"
	"logicregression/internal/oracle"
)

// tracedCase is what the three traced steps measured on one case.
type tracedCase struct {
	real     learnRecord // step (a)
	coverage float64     // hook spans / learn, %
	inner    usage       // client-side timer at the innermost black box
	outer    usage       // remote only: timer above the memo
	sim      usage       // remote only: the server's oracle
	memo     oracle.MemoStats
	retries  int64
	redials  int64
	exact    bool
	replay   optReplay // zero unless the mirror matched the real learn
}

// traceCase runs steps (a)-(c) on one case; ref is its untraced learn.
func traceCase(tr *tracer, ce caseEnv, opts core.Options, seed int64, ref learnRecord) tracedCase {
	name := ce.c.Name
	var tc tracedCase

	// (a) The real learn, with the Progress hook and timers around the
	// oracle stack. Remote: timer -> Memo -> timer -> client.
	inner := newTimer(ce.learnOracle())
	var learnFrom oracle.Oracle = inner
	var (
		memo               *oracle.Memo
		outer              *timer
		sim0               usage
		retries0, redials0 int64
	)
	if ce.link != nil {
		memo = oracle.NewMemo(inner)
		outer = newTimer(memo)
		learnFrom = outer
		opts.MemoizeQueries = false
		sim0 = ce.link.sim.usage()
		retries0, redials0 = ce.link.client.Retries(), ce.link.client.Redials()
	}
	tr.oracle = inner
	root := tr.begin(0, "learn", name)
	cur := tr.begin(root, "core.templates", name)
	opts.Progress = func(p core.Progress) {
		next := ""
		switch {
		case p.Phase == core.PhaseTemplates || (p.Phase == core.PhaseOutput && p.Output < p.Total):
			next = "core.output"
		case p.Phase == core.PhaseOutput:
			next = "core.verify"
		case p.Phase == core.PhaseOptimize:
			next = "opt.total"
		}
		if cur != 0 {
			tr.end(cur, nil)
			cur = 0
		}
		if next != "" {
			cur = tr.begin(root, next, name)
		}
	}
	tc.real = timeLearn(name, learnFrom, opts)
	if cur != 0 {
		tr.end(cur, nil)
	}
	tr.end(root, nil)
	tr.oracle = nil
	tc.real.check(ce, seed)
	tc.coverage = coverage(tr.spans, root)
	tc.inner, tc.outer = inner.usage(), outer.usage()
	if ce.link != nil {
		tc.sim = ce.link.sim.usage().minus(sim0)
		tc.retries = ce.link.client.Retries() - retries0
		tc.redials = ce.link.client.Redials() - redials0
		tc.memo = memo.Stats()
	}
	if tc.real.err == nil && tc.real.sha != ref.sha {
		tc.real.err = fmt.Errorf("traced netlist %.12s differs from untraced %.12s", tc.real.sha, ref.sha)
	}
	if tc.real.err != nil {
		return tc
	}
	res := tc.real.res

	// (b) The mirror of core.Learn, on the same kind of stack.
	var mo oracle.Oracle = ce.golden
	if ce.link != nil {
		mo = oracle.NewMemo(ce.link.client)
	}
	mt := newTimer(mo)
	tr.oracle = mt
	mroot := tr.begin(0, "core.learn", name)
	pre, queries, matched := mirrorLearn(tr, mroot, name, mt, opts)
	tr.end(mroot, map[string]int64{"queries": queries})
	tr.oracle = nil
	if pre == nil || pre.Size() != res.SizeBeforeOpt || queries != res.Queries || matched != res.TemplateMatches {
		return tc
	}

	// (c) The opt passes, replayed on the mirror's circuit.
	oroot := tr.begin(0, "opt.replay", name)
	tc.replay = replayOpt(tr, oroot, name, pre, opts.Seed)
	tr.end(oroot, nil)
	sha, err := netlistSHA(tc.replay.final)
	tc.exact = err == nil && sha == tc.real.sha
	return tc
}

// coverage is the share of span root's duration its children cover, %.
func coverage(spans []span, root int) float64 {
	var covered int64
	for _, s := range spans {
		if s.Parent == root {
			covered += s.dur()
		}
	}
	return 100 * float64(covered) / float64(max(1, spans[root-1].dur()))
}

// spansUnder returns the spans whose root span has the given name.
func spansUnder(spans []span, rootName string) []span {
	rootOf := make(map[int]string, len(spans))
	var out []span
	for _, s := range spans {
		r := s.Name
		if s.Parent != 0 {
			r = rootOf[s.Parent]
		}
		rootOf[s.ID] = r
		if r == rootName {
			out = append(out, s)
		}
	}
	return out
}

// runTraced is the traced run: after set-up it makes one untraced pass for
// reference, then traces every case in three steps: (a) the real learn with
// the Progress hook and oracle timers, (b) the mirror of core.Learn through
// the layers' public functions, (c) the opt passes replayed on the
// mirror's circuit. It reports the per-layer metrics and writes the spans
// to traceDir.
func runTraced(w workload, seed int64, traceDir string, out io.Writer) (result, error) {
	e, err := setup(w, true)
	if err != nil {
		return result{}, err
	}
	defer e.close()

	ref := e.pass(w, seed)
	tr := newTracer()
	opts := learnOptions(w, seed)
	res := result{Metrics: map[string]metric{}}
	tcs := make([]tracedCase, len(e.cases))
	for i, ce := range e.cases {
		tcs[i] = traceCase(tr, ce, opts, seed, ref[i])
	}
	exact := true
	for i := range e.cases {
		for _, r := range []learnRecord{ref[i], tcs[i].real} {
			res.Attempted++
			if r.err != nil {
				res.Failed++
				fmt.Fprintf(os.Stderr, "bench: %s %s: %v\n", w.name, r.caseName, r.err)
			}
		}
		exact = exact && tcs[i].exact
	}
	res.Correct = res.Failed == 0
	if res.Correct {
		res.Metrics = layerMetrics(w, tr.spans, ref, tcs, exact)
	}

	tf := traceFile{Workload: w.name, Seed: seed, Approximate: !exact, Metrics: res.Metrics, Spans: tr.spans}
	path, err := writeTrace(traceDir, tf)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "workload %s, seed %d: traced %d cases, spans in %s\n", w.name, seed, len(e.cases), path)
	if !exact {
		fmt.Fprintln(out, "the mirror diverged from the real learn: layer numbers are approximate")
	}
	if res.Correct {
		printMetrics(out, perLayer, res.Metrics)
	}
	return res, nil
}

// layerMetrics computes the per-layer metrics from the spans and counters
// of a traced run.
func layerMetrics(w workload, spans []span, ref []learnRecord, tcs []tracedCase, exact bool) map[string]metric {
	hook := totals(spansUnder(spans, "learn"))
	mir := totals(spansUnder(spans, "core.learn"))
	rep := totals(spansUnder(spans, "opt.replay"))

	var (
		preOpt, matched, gatesSaved, rewriteAnds, refactorAnds, fraigAnds int
		fraigSkipped, collapseWins, replayed                              int
		untracedS, tracedS, gcPauseNS                                     float64
		numGC                                                             int64
		innerU, outerU, simU                                              usage
		memo                                                              oracle.MemoStats
		retries, redials                                                  int64
		minCoverage                                                       = 100.0
	)
	for i, tc := range tcs {
		r := tc.real.res
		preOpt += r.SizeBeforeOpt
		matched += r.TemplateMatches
		gatesSaved += r.SizeBeforeOpt - r.Size
		untracedS += ref[i].seconds
		tracedS += tc.real.seconds
		numGC += int64(tc.real.numGC)
		gcPauseNS += float64(tc.real.pauseNS)
		minCoverage = min(minCoverage, tc.coverage)
		if tc.replay.final != nil {
			replayed++
			rewriteAnds += tc.replay.rewriteAnds
			refactorAnds += tc.replay.refactorAnds
			fraigAnds += tc.replay.fraigAnds
			if tc.replay.fraigSkipped {
				fraigSkipped++
			}
			if tc.replay.collapseWon {
				collapseWins++
			}
		}
		innerU = innerU.plus(tc.inner)
		outerU = outerU.plus(tc.outer)
		simU = simU.plus(tc.sim)
		memo = memo.Add(tc.memo)
		retries += tc.retries
		redials += tc.redials
	}
	// The oracle layer is the innermost black box: the golden circuit,
	// which remote workloads reach on the server side.
	oracleU := innerU
	if w.remote {
		oracleU = simU
	}

	m := map[string]float64{
		"core.templates_s":   hook.durS("core.templates"),
		"core.outputs_s":     hook.durS("core.output"),
		"core.output_max_s":  float64(mir.maxDur["core.output"]) / 1e9,
		"core.verify_s":      hook.durS("core.verify"),
		"core.self_s":        mir.selfS("core.learn", "core.output", "core.verify"),
		"core.pre_opt_gates": float64(preOpt),

		"template.detect_s":        mir.durS("template.detect"),
		"template.matched_outputs": float64(matched),
		"template.queries":         float64(mir.counts["template.detect/queries"]),

		"support.identify_s": mir.durS("support.identify"),
		"support.self_s":     mir.selfS("support.identify"),
		"support.calls":      float64(mir.n["support.identify"]),
		"support.size_mean":  ratio(float64(mir.counts["support.identify/support"]), float64(mir.n["support.identify"])),
		"support.queries":    float64(mir.counts["support.identify/queries"]),

		"fbdt.exhaustive_s":       mir.durS("fbdt.exhaustive"),
		"fbdt.exhaustive_outputs": float64(mir.n["fbdt.exhaustive"]),
		"fbdt.build_s":            mir.durS("fbdt.build"),
		"fbdt.tree_outputs":       float64(mir.n["fbdt.build"]),
		"fbdt.self_s":             mir.selfS("fbdt.exhaustive", "fbdt.build"),
		"fbdt.nodes_expanded":     float64(mir.counts["fbdt.build/nodes_expanded"]),
		"fbdt.approx_leaves":      float64(mir.counts["fbdt.build/approx_leaves"]),
		"fbdt.truncated_outputs":  float64(mir.counts["fbdt.build/truncated"]),
		"fbdt.queries":            float64(mir.counts["fbdt.exhaustive/queries"] + mir.counts["fbdt.build/queries"]),

		"sop.reduce_s": mir.durS("sop.reduce"),
		"sop.synth_s":  mir.durS("sop.synth"),
		"sop.cubes":    float64(mir.counts["sop.reduce/cubes"]),

		"opt.total_s":           hook.durS("opt.total"),
		"opt.strash_s":          rep.durS("opt.strash"),
		"opt.rewrite_s":         rep.durS("opt.rewrite"),
		"opt.refactor_s":        rep.durS("opt.refactor"),
		"opt.fraig_s":           rep.durS("opt.fraig"),
		"opt.collapse_s":        rep.durS("opt.collapse"),
		"opt.rewrite_ands":      float64(rewriteAnds),
		"opt.refactor_ands":     float64(refactorAnds),
		"opt.fraig_ands":        float64(fraigAnds),
		"opt.fraig_skipped":     float64(fraigSkipped),
		"opt.collapse_win_rate": ratio(float64(collapseWins), float64(replayed)),
		"opt.gates_saved":       float64(gatesSaved),

		"oracle.calls":          float64(oracleU.calls),
		"oracle.lanes":          float64(oracleU.lanes),
		"oracle.busy_s":         float64(oracleU.busyNS) / 1e9,
		"oracle.lanes_per_call": ratio(float64(oracleU.lanes), float64(oracleU.calls)),
		"oracle.ns_per_lane":    ratio(float64(oracleU.busyNS), float64(oracleU.lanes)),
		"oracle.share":          ratio(float64(oracleU.busyNS)/1e9, tracedS),

		"memo.hits":      float64(memo.Hits),
		"memo.misses":    float64(memo.Misses),
		"memo.evictions": float64(memo.Evictions),
		"memo.hit_rate":  memo.HitRate(),
		"memo.self_s":    0,

		"ioserve.round_trips":  float64(simU.calls),
		"ioserve.rtt_us":       ratio(float64(innerU.busyNS)/1e3, float64(simU.calls)),
		"ioserve.server_sim_s": float64(simU.busyNS) / 1e9,
		"ioserve.wire_self_s":  0,
		"ioserve.retries":      float64(retries),
		"ioserve.redials":      float64(redials),

		"runtime.gc_cycles":   float64(numGC),
		"runtime.gc_pause_s":  gcPauseNS / 1e9,
		"runtime.peak_rss_mb": peakRSSMB(),

		"trace.overhead_pct": 100 * ratio(tracedS-untracedS, untracedS),
		"trace.coverage_pct": minCoverage,
		"trace.mirror_exact": 0,
	}
	if exact {
		m["trace.mirror_exact"] = 1
	}
	if w.remote {
		m["memo.self_s"] = float64(outerU.busyNS-innerU.busyNS) / 1e9
		m["ioserve.wire_self_s"] = float64(innerU.busyNS-simU.busyNS) / 1e9
	}
	return withUnits(perLayer, m)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size (getrusage), MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
