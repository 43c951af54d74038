// Command bench is the repository's learn benchmark: fixed-seed core.Learn
// on five named workloads built from the Table II cases, timed from outside
// around the calls into each layer, with every learned netlist checked.
//
// From the repository root, run.sh builds it and passes its flags on:
//
//	bash bench/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--trace-dir D]
//
// With --workload, one workload runs in this process. Without it, every
// workload runs, each in a child process of its own, one at a time.
// --trace 0 (the default) learns pass after pass for --seconds and reports
// the end-to-end metrics; --trace 1 makes one traced pass and reports the
// per-layer split.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when any learn
// failed and 2 on a usage error. README.md defines every metric.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// caseRecord is one case's committed seed result.
type caseRecord struct {
	Gates   int     `json:"gates"`
	AccPct  float64 `json:"acc_pct"`
	Queries int64   `json:"queries"`
	SHA256  string  `json:"sha256"`
}

// spread is a metric's median and quartiles over repeated runs.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
}

// record is record.json: the per-case results at one seed, and the
// end-to-end medians of repeated runs at that seed, on the commit that
// defined the benchmark.
type record struct {
	Seed      int64 `json:"seed"`
	Workloads map[string]struct {
		Cases    map[string]caseRecord `json:"cases"`
		Baseline map[string]spread     `json:"baseline"`
	} `json:"workloads"`
}

//go:embed record.json
var recordJSON []byte

var committed = func() record {
	var r record
	if err := json.Unmarshal(recordJSON, &r); err != nil {
		panic("bench: record.json: " + err.Error())
	}
	return r
}()

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all, one child process each)")
		seed     = flag.Int64("seed", 0, "benchmark seed S; learns use seed S+1, the accuracy check S+7919")
		seconds  = flag.Float64("seconds", 24, "time budget of the untraced passes per workload")
		trace    = flag.Int("trace", 0, "1 makes one traced pass and reports the per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build", "directory the traced run writes trace-<workload>.json to")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(os.Args[1:]))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, *traceDir, os.Stdout)
	} else {
		res, err = runTimed(w, *seed, time.Duration(*seconds*float64(time.Second)), os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of its own, one at a time,
// passing the flags on, and prints a summary whose metric names are
// prefixed with the workload's. It returns the exit code.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	total := result{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(exe, append([]string{"--workload", w.name}, args...)...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		var res result
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: no result (%v)\n", w.name, runErr)
			total.Correct = false
			continue
		}
		total.Correct = total.Correct && res.Correct && runErr == nil
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[w.name+"."+k] = m
		}
		fmt.Println()
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encode result: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}
