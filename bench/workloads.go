package main

import "logicregression/internal/core"

// workload is one named set of learns, run in a closed loop: each learn
// starts when the previous one returns. BENCHMARK.json and README.md say why
// each workload was chosen.
type workload struct {
	name  string
	cases []string
	// parallel is core.Options.Parallel; 0 keeps the sequential path.
	parallel int
	// remote learns every case over ioserve protocol v2 on loopback TCP,
	// through one oracle.Memo per learn, as `logicreg -remote` does.
	remote bool
}

var ecoNEQCases = []string{"case_1", "case_4", "case_5", "case_7", "case_10", "case_11", "case_13", "case_17", "case_19"}

var workloads = []workload{
	{name: "eco_neq", cases: ecoNEQCases},
	{name: "diag_data", cases: []string{"case_2", "case_3", "case_6", "case_8", "case_12", "case_15", "case_16", "case_20"}},
	// case_9 is left out to keep a run short; case_14 is the most
	// oracle-bound of the three hard cases.
	{name: "hard_neq", cases: []string{"case_14", "case_18"}},
	{name: "remote_eco", cases: []string{"case_4", "case_7", "case_10", "case_13"}, remote: true},
	{name: "eco_neq_par2", cases: ecoNEQCases, parallel: 2},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The learn options are the EXPERIMENTS.md E1 budget without its wall-clock
// deadline, so every learn is deterministic in the seed.
const (
	supportR     = 768
	maxTreeNodes = 600
	// evalPatterns and evalSeedOffset are E1's accuracy-check settings.
	evalPatterns   = 30000
	evalSeedOffset = 7919
)

// learnOptions returns the options of every learn of w at benchmark seed s.
func learnOptions(w workload, s int64) core.Options {
	return core.Options{
		Seed:           s + 1,
		SupportR:       supportR,
		MaxTreeNodes:   maxTreeNodes,
		Parallel:       w.parallel,
		MemoizeQueries: w.remote,
	}
}

// core.Learn's defaults for the options the benchmark leaves unset; the
// mirror in mirror.go replays the learn with them.
const (
	treeR               = 60
	exhaustiveThreshold = 18
	// opt.Optimize skips refactor and fraig above these AND counts.
	refactorBudget = 50000
	maxFraigNodes  = 20000
)

// metricDef declares one reported metric. BENCHMARK.json declares the same
// names, units and directions; bench_test.go checks that the two agree.
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics come from untraced runs (--trace 0).
var endToEnd = []metricDef{
	{"learn_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"gates", "count", "lower"},
	{"queries", "count", "lower"},
	{"acc_mean_pct", "%", "higher"},
	{"alloc_mb", "MB", "lower"},
}

// perLayer metrics come from the traced run (--trace 1).
var perLayer = []metricDef{
	{"core.templates_s", "s", "lower"},
	{"core.outputs_s", "s", "lower"},
	{"core.output_max_s", "s", "lower"},
	{"core.verify_s", "s", "lower"},
	{"core.self_s", "s", "lower"},
	{"core.pre_opt_gates", "count", "lower"},
	{"template.detect_s", "s", "lower"},
	{"template.matched_outputs", "count", "higher"},
	{"template.queries", "count", "lower"},
	{"support.identify_s", "s", "lower"},
	{"support.self_s", "s", "lower"},
	{"support.calls", "count", "lower"},
	{"support.size_mean", "inputs", "higher"},
	{"support.queries", "count", "lower"},
	{"fbdt.exhaustive_s", "s", "lower"},
	{"fbdt.exhaustive_outputs", "count", "higher"},
	{"fbdt.build_s", "s", "lower"},
	{"fbdt.tree_outputs", "count", "lower"},
	{"fbdt.self_s", "s", "lower"},
	{"fbdt.nodes_expanded", "count", "lower"},
	{"fbdt.approx_leaves", "count", "lower"},
	{"fbdt.truncated_outputs", "count", "lower"},
	{"fbdt.queries", "count", "lower"},
	{"sop.reduce_s", "s", "lower"},
	{"sop.synth_s", "s", "lower"},
	{"sop.cubes", "count", "lower"},
	{"opt.total_s", "s", "lower"},
	{"opt.strash_s", "s", "lower"},
	{"opt.rewrite_s", "s", "lower"},
	{"opt.refactor_s", "s", "lower"},
	{"opt.fraig_s", "s", "lower"},
	{"opt.collapse_s", "s", "lower"},
	{"opt.rewrite_ands", "count", "lower"},
	{"opt.refactor_ands", "count", "lower"},
	{"opt.fraig_ands", "count", "lower"},
	{"opt.fraig_skipped", "count", "lower"},
	{"opt.collapse_win_rate", "ratio", "higher"},
	{"opt.gates_saved", "count", "higher"},
	{"oracle.calls", "count", "lower"},
	{"oracle.lanes", "count", "lower"},
	{"oracle.busy_s", "s", "lower"},
	{"oracle.lanes_per_call", "lanes/call", "higher"},
	{"oracle.ns_per_lane", "ns", "lower"},
	{"oracle.share", "ratio", "lower"},
	{"memo.hits", "count", "higher"},
	{"memo.misses", "count", "lower"},
	{"memo.evictions", "count", "lower"},
	{"memo.hit_rate", "ratio", "higher"},
	{"memo.self_s", "s", "lower"},
	{"ioserve.round_trips", "count", "lower"},
	{"ioserve.rtt_us", "us", "lower"},
	{"ioserve.server_sim_s", "s", "lower"},
	{"ioserve.wire_self_s", "s", "lower"},
	{"ioserve.retries", "count", "lower"},
	{"ioserve.redials", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_s", "s", "lower"},
	{"runtime.peak_rss_mb", "MB", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.coverage_pct", "%", "higher"},
	{"trace.mirror_exact", "flag", "higher"},
}
