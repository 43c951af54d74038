package main

import (
	"sync/atomic"
	"time"

	"logicregression/internal/bitvec"
	"logicregression/internal/oracle"
)

// timer wraps an oracle and counts, with atomics, the calls into it, the
// patterns (lanes) they carry and the wall time spent inside them, so it is
// safe under the parallel learner. It offers the word and batch interfaces
// and forwards each to the path the wrapped oracle takes without it, so a
// learn through a timer issues the same queries and gets the same answers.
type timer struct {
	inner  oracle.Oracle
	calls  atomic.Int64
	lanes  atomic.Int64
	busyNS atomic.Int64
}

func newTimer(o oracle.Oracle) *timer { return &timer{inner: o} }

func (t *timer) NumInputs() int        { return t.inner.NumInputs() }
func (t *timer) NumOutputs() int       { return t.inner.NumOutputs() }
func (t *timer) InputNames() []string  { return t.inner.InputNames() }
func (t *timer) OutputNames() []string { return t.inner.OutputNames() }

func (t *timer) Eval(a []bool) []bool {
	start := time.Now()
	out := t.inner.Eval(a)
	t.note(start, 1)
	return out
}

func (t *timer) EvalWords(in []uint64) []uint64 {
	start := time.Now()
	out := oracle.EvalWords(t.inner, in)
	t.note(start, 64)
	return out
}

func (t *timer) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	start := time.Now()
	out := oracle.AsBatch(t.inner).EvalBatch(patterns, n)
	t.note(start, n)
	return out
}

func (t *timer) note(start time.Time, lanes int) {
	t.busyNS.Add(time.Since(start).Nanoseconds())
	t.calls.Add(1)
	t.lanes.Add(int64(lanes))
}

// usage is a snapshot of a timer's counters.
type usage struct {
	calls, lanes, busyNS int64
}

func (t *timer) usage() usage {
	if t == nil {
		return usage{}
	}
	return usage{calls: t.calls.Load(), lanes: t.lanes.Load(), busyNS: t.busyNS.Load()}
}

func (u usage) minus(v usage) usage {
	return usage{calls: u.calls - v.calls, lanes: u.lanes - v.lanes, busyNS: u.busyNS - v.busyNS}
}

func (u usage) plus(v usage) usage {
	return usage{calls: u.calls + v.calls, lanes: u.lanes + v.lanes, busyNS: u.busyNS + v.busyNS}
}
