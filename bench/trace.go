package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Oracle calls are not recorded one by
// one (a case makes up to ~10^5 of them); a span instead carries the time
// its oracle calls took, as the count oracle_ns, and self time subtracts it
// like a child interval.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 for a root
	Name   string           `json:"name"`
	Case   string           `json:"case"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	spans []span
	// oracle is the timer whose busy time the open spans record, if any.
	oracle *timer
	open   map[int]usage
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[int]usage)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(parent int, name, caseName string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Case: caseName,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	id := len(t.spans)
	t.open[id] = t.oracle.usage()
	return id
}

// end closes span id and attaches counts to it.
func (t *tracer) end(id int, counts map[string]int64) {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	if t.oracle != nil {
		u := t.oracle.usage().minus(t.open[id])
		if counts == nil {
			counts = make(map[string]int64)
		}
		counts["oracle_ns"] = u.busyNS
		counts["oracle_calls"] = u.calls
		counts["oracle_lanes"] = u.lanes
	}
	delete(t.open, id)
	s.Counts = counts
}

// selfNS returns each span's self time: its duration minus the union of
// its children's intervals, minus the oracle time of its own calls (its
// oracle_ns less that of its children).
func selfNS(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), int64(0)
		ownOracle := s.Counts["oracle_ns"]
		for _, k := range kids {
			start := max(k.Start, reach)
			if k.End > start {
				covered += k.End - start
			}
			reach = max(reach, k.End)
			ownOracle -= k.Counts["oracle_ns"]
		}
		self[s.ID] = max(0, s.dur()-covered-max(0, ownOracle))
	}
	return self
}

// layerTotals sums, per span name, the durations, self times and counts.
type layerTotals struct {
	n      map[string]int64
	dur    map[string]int64
	self   map[string]int64
	counts map[string]int64 // keyed by "<span name>/<count name>"
	maxDur map[string]int64
}

func totals(spans []span) layerTotals {
	lt := layerTotals{
		n: map[string]int64{}, dur: map[string]int64{}, self: map[string]int64{},
		counts: map[string]int64{}, maxDur: map[string]int64{},
	}
	self := selfNS(spans)
	for _, s := range spans {
		lt.n[s.Name]++
		lt.dur[s.Name] += s.dur()
		lt.self[s.Name] += self[s.ID]
		lt.maxDur[s.Name] = max(lt.maxDur[s.Name], s.dur())
		for k, v := range s.Counts {
			lt.counts[s.Name+"/"+k] += v
		}
	}
	return lt
}

// durS and selfS return the summed duration and self time, in seconds, of
// the spans with any of the given names.
func (lt layerTotals) durS(names ...string) float64 {
	var ns int64
	for _, n := range names {
		ns += lt.dur[n]
	}
	return float64(ns) / 1e9
}

func (lt layerTotals) selfS(names ...string) float64 {
	var ns int64
	for _, n := range names {
		ns += lt.self[n]
	}
	return float64(ns) / 1e9
}

// traceFile is what a traced run writes out.
type traceFile struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Approximate bool              `json:"approximate"`
	Metrics     map[string]metric `json:"metrics"`
	Spans       []span            `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
