package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"logicregression/internal/check"
	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/eval"
	"logicregression/internal/oracle"
)

// learnRecord is one learn of one case and what the checks found.
type learnRecord struct {
	caseName string
	res      *core.Result
	seconds  float64 // wall time around core.Learn
	allocB   uint64  // bytes allocated during the learn
	numGC    uint32  // GC cycles during the learn
	pauseNS  uint64  // GC pause time during the learn
	sha      string  // SHA-256 of the netlist text
	acc      float64 // accuracy against the golden oracle, %
	// err says why the learn counts as failed; nil when it passed.
	err error
}

// learn runs core.Learn on o and checks the result against the case.
func learn(ce caseEnv, o oracle.Oracle, opts core.Options, seed int64) learnRecord {
	r := timeLearn(ce.c.Name, o, opts)
	r.check(ce, seed)
	return r
}

// timeLearn runs core.Learn on o, timing it and counting its allocations.
func timeLearn(caseName string, o oracle.Oracle, opts core.Options) learnRecord {
	r := learnRecord{caseName: caseName}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	r.res, r.err = safeLearn(o, opts)
	r.seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	r.allocB = after.TotalAlloc - before.TotalAlloc
	r.numGC = after.NumGC - before.NumGC
	r.pauseNS = after.PauseTotalNs - before.PauseTotalNs
	return r
}

// check verifies the learned netlist, hashes it and measures its accuracy
// against the case's golden oracle.
func (r *learnRecord) check(ce caseEnv, seed int64) {
	if r.err != nil {
		return
	}
	if err := check.Verify(r.res.Circuit); err != nil {
		r.err = fmt.Errorf("netlist rejected: %w", err)
		return
	}
	if r.sha, r.err = netlistSHA(r.res.Circuit); r.err != nil {
		return
	}
	rep := eval.Measure(ce.golden, oracle.FromCircuit(r.res.Circuit), eval.Config{
		Patterns: evalPatterns,
		Seed:     seed + evalSeedOffset,
	})
	r.acc = rep.Accuracy * 100
}

// safeLearn runs core.Learn, reporting a panic, a degraded learn (the
// remote client gave up) or a canceled one as an error.
func safeLearn(o oracle.Oracle, opts core.Options) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	res = core.Learn(o, opts)
	switch {
	case res.Degraded:
		err = fmt.Errorf("degraded: %s", res.DegradedReason)
	case res.Canceled:
		err = errors.New("canceled")
	}
	return res, err
}

func netlistSHA(c *circuit.Circuit) (string, error) {
	h := sha256.New()
	if err := circuit.WriteNetlist(h, c); err != nil {
		return "", fmt.Errorf("write netlist: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// pass learns every case of the workload once, in order.
func (e *env) pass(w workload, seed int64) []learnRecord {
	opts := learnOptions(w, seed)
	recs := make([]learnRecord, len(e.cases))
	for i, ce := range e.cases {
		recs[i] = learn(ce, ce.learnOracle(), opts, seed)
	}
	return recs
}

// checkRepeats fails every learn whose netlist differs from the first
// pass's netlist of the same case.
func checkRepeats(passes [][]learnRecord) {
	for _, p := range passes[1:] {
		for i := range p {
			if first := passes[0][i]; p[i].err == nil && first.err == nil && p[i].sha != first.sha {
				p[i].err = fmt.Errorf("netlist %.12s differs from pass 1's %.12s", p[i].sha, first.sha)
			}
		}
	}
}

// checkAgainstLocal learns every case of a remote workload once more, on
// the golden oracle in-process, and fails every remote learn whose netlist
// differs from that local learn's.
func checkAgainstLocal(e *env, seed int64, passes [][]learnRecord) {
	opts := learnOptions(workload{}, seed)
	for i, ce := range e.cases {
		local := learn(ce, ce.golden, opts, seed)
		for _, p := range passes {
			switch {
			case p[i].err != nil:
			case local.err != nil:
				p[i].err = fmt.Errorf("local reference learn failed: %w", local.err)
			case p[i].sha != local.sha:
				p[i].err = fmt.Errorf("remote netlist %.12s differs from local %.12s", p[i].sha, local.sha)
			}
		}
	}
}

// runTimed is the untraced run: after set-up, it learns every case of the
// workload pass after pass while another pass still fits in budget (at
// least once), checks every learn and reports the end-to-end metrics. It
// calibrates before set-up and after set-up and every pass, and reports
// times at the reference speed (see calibrate.go).
func runTimed(w workload, seed int64, budget time.Duration, out io.Writer) (result, error) {
	cal := []float64{calibrate()}
	e, setupS, err := timedSetup(w, false)
	if err != nil {
		return result{}, err
	}
	defer e.close()
	cal = append(cal, calibrate())

	var passes [][]learnRecord
	start := time.Now()
	for {
		// Every pass starts from a collected heap, as the first one does.
		runtime.GC()
		passes = append(passes, e.pass(w, seed))
		cal = append(cal, calibrate())
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(passes)) > budget {
			break
		}
	}
	checkRepeats(passes)
	if w.remote {
		checkAgainstLocal(e, seed, passes)
	}

	var res result
	var wallS, learnS, allocMB []float64
	for i, p := range passes {
		var s float64
		var b uint64
		for _, r := range p {
			res.Attempted++
			if r.err != nil {
				res.Failed++
				fmt.Fprintf(os.Stderr, "bench: %s %s: %v\n", w.name, r.caseName, r.err)
			}
			s += r.seconds
			b += r.allocB
		}
		wallS = append(wallS, s)
		learnS = append(learnS, atRefSpeed(s, cal[i+1], cal[i+2]))
		allocMB = append(allocMB, float64(b)/(1<<20))
	}
	res.Correct = res.Failed == 0

	rows := caseRows(passes)
	printRows(out, rows)
	printRecordDiff(out, w, seed, rows)

	var gates, queries int64
	var accSum float64
	below := 0
	for _, r := range rows {
		gates += int64(r.gates)
		queries += r.queries
		accSum += r.acc
		if r.acc < 99.99 {
			below++
		}
	}
	res.Metrics = withUnits(endToEnd, map[string]float64{
		"learn_s":      median(learnS),
		"setup_s":      atRefSpeed(setupS, cal[0], cal[1]),
		"gates":        float64(gates),
		"queries":      float64(queries),
		"acc_mean_pct": accSum / float64(len(rows)),
		"alloc_mb":     median(allocMB),
	})

	fmt.Fprintf(out, "\nworkload %s, seed %d: %d passes of %d cases, %d of %d learns failed (failed_frac %.4g), %d cases below 99.99%%\n",
		w.name, seed, len(passes), len(e.cases), res.Failed, res.Attempted,
		float64(res.Failed)/float64(res.Attempted), below)
	fmt.Fprintf(out, "wall time: learn %.4g s (median of %d passes), setup %.4g s; calibration %.4g s (reference %.4g s)\n",
		median(wallS), len(passes), setupS, median(cal), refCalS)
	printMetrics(out, endToEnd, res.Metrics)
	return res, nil
}

// caseRow summarizes one case over a run's passes.
type caseRow struct {
	name    string
	gates   int
	acc     float64
	queries int64
	learnS  float64 // median over passes
	sha     string
}

func caseRows(passes [][]learnRecord) []caseRow {
	rows := make([]caseRow, len(passes[0]))
	for i, first := range passes[0] {
		row := caseRow{name: first.caseName, acc: first.acc, sha: first.sha}
		if first.res != nil {
			row.gates, row.queries = first.res.Size, first.res.Queries
		}
		var secs []float64
		for _, p := range passes {
			secs = append(secs, p[i].seconds)
		}
		row.learnS = median(secs)
		rows[i] = row
	}
	return rows
}

func printRows(out io.Writer, rows []caseRow) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "case\tgates\tacc_pct\tqueries\tlearn_s\tsha256")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%d\t%.4f\t%s\n", r.name, r.gates, r.acc, r.queries, r.learnS, r.sha)
	}
	tw.Flush()
}

// printRecordDiff compares the rows with the committed per-case record of
// the same seed. The comparison is informational: the metric bounds decide.
func printRecordDiff(out io.Writer, w workload, seed int64, rows []caseRow) {
	rec, ok := committed.Workloads[w.name]
	if !ok || seed != committed.Seed {
		return
	}
	same := 0
	for _, r := range rows {
		want, ok := rec.Cases[r.name]
		switch {
		case !ok:
			fmt.Fprintf(out, "record: %s not recorded\n", r.name)
		case want.Gates != r.gates || want.Queries != r.queries || fmt.Sprintf("%.3f", want.AccPct) != fmt.Sprintf("%.3f", r.acc) || want.SHA256 != r.sha:
			fmt.Fprintf(out, "record: %s gates %d -> %d, acc_pct %.3f -> %.3f, queries %d -> %d, sha256 %.12s -> %.12s\n",
				r.name, want.Gates, r.gates, want.AccPct, r.acc, want.Queries, r.queries, want.SHA256, r.sha)
		default:
			same++
		}
	}
	fmt.Fprintf(out, "record: %d of %d cases match the seed-%d record\n", same, len(rows), seed)
}

func printMetrics(out io.Writer, defs []metricDef, ms map[string]metric) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		m := ms[d.name]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s is better\n", d.name, m.Value, m.Unit, d.better)
	}
	tw.Flush()
}

// withUnits pairs every declared metric with its value; a declared metric
// without a value is a bug in the runner.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("bench: metric not computed: " + d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
