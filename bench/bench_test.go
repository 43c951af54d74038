package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestSmoke makes one untraced pass over two quick cases and checks the
// learned netlists against the E1 rows.
func TestSmoke(t *testing.T) {
	w := workload{name: "smoke", cases: []string{"case_10", "case_16"}}
	e, err := setup(w, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	want := map[string]int{"case_10": 24, "case_16": 66}
	for _, r := range e.pass(w, 0) {
		if r.err != nil {
			t.Fatalf("%s: %v", r.caseName, r.err)
		}
		if r.res.Size != want[r.caseName] || r.acc != 100 {
			t.Errorf("%s: %d gates, %.3f%%; want %d gates, 100%%", r.caseName, r.res.Size, r.acc, want[r.caseName])
		}
	}
}

// TestMirrorExact traces one case per learning path (exhaustive,
// comparator templates, linear templates): the traced learn must equal the
// untraced one byte for byte, and the mirror and opt replay must rebuild
// its netlist exactly.
func TestMirrorExact(t *testing.T) {
	for _, name := range []string{"case_4", "case_8", "case_12"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			traceOne(t, workload{name: name, cases: []string{name}})
		})
	}
}

// TestTracingNeverPerturbsRemote traces a learn over the wire, where the
// traced stack differs most from the untraced one.
func TestTracingNeverPerturbsRemote(t *testing.T) {
	traceOne(t, workload{name: "remote", cases: []string{"case_10"}, remote: true})
}

func traceOne(t *testing.T, w workload) {
	e, err := setup(w, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ref := e.pass(w, 0)
	if ref[0].err != nil {
		t.Fatal(ref[0].err)
	}
	tc := traceCase(newTracer(), e.cases[0], learnOptions(w, 0), 0, ref[0])
	if tc.real.err != nil {
		t.Fatal(tc.real.err)
	}
	if !tc.exact {
		t.Error("mirror and opt replay diverged from the real learn")
	}
	if tc.coverage < 95 {
		t.Errorf("hook spans cover %.1f%% of the learn, want >= 95%%", tc.coverage)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100, Counts: map[string]int64{"oracle_ns": 30}},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40, Counts: map[string]int64{"oracle_ns": 20}},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
	}
	// root: 100 - |[10,60]| - (30 - 20) own oracle = 40; a: 30 - 20 = 10.
	got := selfNS(spans)
	if got[1] != 40 || got[2] != 10 || got[3] != 30 {
		t.Errorf("self times %v, want 1:40 2:10 3:30", got)
	}
}

// TestMetricNames checks that BENCHMARK.json declares exactly the
// workloads and metrics the runner reports, and that every name is valid.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	sameNames(t, "workloads", names, ours, valid)

	for _, c := range []struct {
		kind string
		spec []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		names, ours = nil, nil
		for i, m := range c.spec {
			names = append(names, m.Name)
			if i < len(c.defs) && (m.Unit != c.defs[i].unit || m.Better != c.defs[i].better) {
				t.Errorf("%s %s: BENCHMARK.json says %s/%s, the runner %s/%s",
					c.kind, m.Name, m.Unit, m.Better, c.defs[i].unit, c.defs[i].better)
			}
		}
		for _, d := range c.defs {
			ours = append(ours, d.name)
		}
		sameNames(t, c.kind, names, ours, valid)
	}
}

func sameNames(t *testing.T, kind string, declared, reported []string, valid *regexp.Regexp) {
	t.Helper()
	if len(declared) != len(reported) {
		t.Errorf("%s: BENCHMARK.json declares %d, the runner reports %d", kind, len(declared), len(reported))
		return
	}
	for i := range declared {
		if declared[i] != reported[i] {
			t.Errorf("%s %d: BENCHMARK.json declares %q, the runner reports %q", kind, i, declared[i], reported[i])
		}
		if !valid.MatchString(declared[i]) {
			t.Errorf("%s: invalid name %q", kind, declared[i])
		}
	}
}
