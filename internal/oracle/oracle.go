// Package oracle defines the black-box input-output relation generator
// interface of the contest problem and the standard wrappers around it.
//
// Per the problem statement, an oracle accepts only full input assignments
// and returns full output assignments; nothing else about the hidden function
// is observable. The circuit-backed implementation stands in for the contest
// `iogen` executables (see DESIGN.md substitutions).
//
// Two query forms coexist, information-equivalent:
//
//	Eval       one assignment per call — the reference semantics
//	EvalBatch  any number of assignments packed into lanes (BatchOracle,
//	           see batch.go) — the engine the pipeline actually drives
//
// The EvalWords helper is EvalBatch on one 64-pattern word per input, and
// EvalOutput is EvalBatch read at one output: what support identification
// and tree growth ask, since the learner takes the outputs one at a time.
// Every wrapper in this package (Counter, Memo, Recorder) preserves
// the batch capability of the oracle it wraps. Memo forwards a batch's
// deduplicated misses as one inner batch; it probes and fills its cache a
// shard at a time, on pooled scratch, with the results, counters and LRU
// order of taking the patterns one by one. The circuit-backed
// oracle answers a batch with the circuit's k-word simulation kernel (up to
// 1024 patterns per pass over the gates) on pooled scratch, so the pipeline's
// wide batches — a whole PatternSampling sweep per call — cost no per-call
// scratch allocation. That also makes it safe for concurrent use; Shared
// gives any other box one handle that many goroutines may query.
//
// Two boxes answer EvalOutput on their own: the circuit-backed oracle
// simulates only that output's fan-in cone, and Counter forwards the call
// and charges its patterns. Every other box answers the whole batch and the
// output's lane is sliced out. Memo and Recorder must stay on that
// fallback: a memo entry and a transcript line are each a whole response,
// so a one-output answer could neither fill the cache nor be recorded, and
// a learn would query and store other rows than it does without them.
package oracle

import (
	"fmt"
	"sync"

	"logicregression/internal/bitvec"
	"logicregression/internal/circuit"
)

// Oracle is a black-box IO-relation generator.
type Oracle interface {
	// NumInputs returns |I|.
	NumInputs() int
	// NumOutputs returns |O|.
	NumOutputs() int
	// InputNames returns the PI names, the only structural hint the
	// contest provides (exploited by name-based grouping).
	InputNames() []string
	// OutputNames returns the PO names.
	OutputNames() []string
	// Eval queries the generator with one full assignment.
	Eval(assignment []bool) []bool
}

// CircuitOracle wraps a circuit as a black box.
type CircuitOracle struct {
	c *circuit.Circuit
	// evals pools simulation scratch across calls and goroutines: each
	// EvalBatch borrows one *circuit.Evaluator for its duration.
	evals sync.Pool
	// cones holds, per output, a one-output oracle over that output's
	// fan-in cone, built on the output's first EvalOutput query.
	cones []cone
}

type cone struct {
	once sync.Once
	o    *CircuitOracle
}

// FromCircuit returns an oracle backed by the given circuit. A circuit
// queried through EvalOutput must not change afterwards: the oracle keeps
// the copies of output cones it has built.
func FromCircuit(c *circuit.Circuit) *CircuitOracle {
	return &CircuitOracle{c: c, cones: make([]cone, c.NumPO())}
}

func (o *CircuitOracle) NumInputs() int        { return o.c.NumPI() }
func (o *CircuitOracle) NumOutputs() int       { return o.c.NumPO() }
func (o *CircuitOracle) InputNames() []string  { return o.c.PINames() }
func (o *CircuitOracle) OutputNames() []string { return o.c.PONames() }
func (o *CircuitOracle) Eval(a []bool) []bool  { return o.c.Eval(a) }

// EvalBatch simulates the lane-layout batch directly with the circuit's
// k-word kernel (circuit.Evaluator.EvalLanes), on an Evaluator borrowed from
// the oracle's pool, so a call allocates only its result lanes.
func (o *CircuitOracle) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	w := Words(n)
	checkBatch(len(patterns), o.c.NumPI(), n)
	out := make([]bitvec.Word, o.c.NumPO()*w)
	ev, _ := o.evals.Get().(*circuit.Evaluator)
	if ev == nil {
		ev = o.c.NewEvaluator()
	}
	ev.EvalLanes(patterns, w, out)
	o.evals.Put(ev)
	return out
}

// evalOutput simulates only output po's fan-in cone: a copy of the circuit
// with every PI, in order, and that one output, so input lanes pass through
// unchanged.
func (o *CircuitOracle) evalOutput(patterns []bitvec.Word, n, po int) []bitvec.Word {
	cn := &o.cones[po]
	cn.once.Do(func() {
		c := circuit.New()
		pis := make([]circuit.Signal, o.c.NumPI())
		for i, name := range o.c.PINames() {
			pis[i] = c.AddPI(name)
		}
		c.AddPO(o.c.PONames()[po], circuit.CopyCone(c, pis, o.c, po))
		cn.o = FromCircuit(c)
	})
	return cn.o.EvalBatch(patterns, n)
}

// Shared returns a handle on o that any number of goroutines may query at
// once, as a server's connections, sessions and jobs do. A *CircuitOracle is
// its own handle: it keeps all mutable state in pooled per-call scratch and
// in output cones each built once, under a sync.Once. Any other box makes
// no concurrency promise, so it gets one view that lets a single query in
// at a time and keeps its batch path and its error classes.
// A handle Shared returned comes back unchanged, so every layer handed it
// queries the box under the same lock.
func Shared(o Oracle) Oracle {
	switch o.(type) {
	case *CircuitOracle, *sharedOracle:
		return o
	}
	return &sharedOracle{BatchOracle: AsBatch(o), fallible: AsFallible(o)}
}

// sharedOracle serializes every query to a box that is not safe for
// concurrent use.
type sharedOracle struct {
	BatchOracle // the box's names and arities
	fallible    FallibleBatch

	mu sync.Mutex
}

func (s *sharedOracle) Eval(a []bool) []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.BatchOracle.Eval(a)
}

func (s *sharedOracle) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.BatchOracle.EvalBatch(patterns, n)
}

func (s *sharedOracle) TryEval(a []bool) ([]bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fallible.TryEval(a)
}

func (s *sharedOracle) TryEvalBatch(patterns []bitvec.Word, n int) ([]bitvec.Word, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fallible.TryEvalBatch(patterns, n)
}

// FuncOracle adapts a Go function to the Oracle interface, for tests.
type FuncOracle struct {
	Ins, Outs []string
	F         func([]bool) []bool
}

func (o *FuncOracle) NumInputs() int        { return len(o.Ins) }
func (o *FuncOracle) NumOutputs() int       { return len(o.Outs) }
func (o *FuncOracle) InputNames() []string  { return append([]string(nil), o.Ins...) }
func (o *FuncOracle) OutputNames() []string { return append([]string(nil), o.Outs...) }
func (o *FuncOracle) Eval(a []bool) []bool  { return o.F(a) }

// Counter wraps an oracle and counts queries. It is safe for concurrent use.
type Counter struct {
	inner   Oracle
	mu      sync.Mutex
	queries int64
}

// NewCounter wraps o with a query counter.
func NewCounter(o Oracle) *Counter { return &Counter{inner: o} }

func (o *Counter) NumInputs() int        { return o.inner.NumInputs() }
func (o *Counter) NumOutputs() int       { return o.inner.NumOutputs() }
func (o *Counter) InputNames() []string  { return o.inner.InputNames() }
func (o *Counter) OutputNames() []string { return o.inner.OutputNames() }

func (o *Counter) Eval(a []bool) []bool {
	o.mu.Lock()
	o.queries++
	o.mu.Unlock()
	return o.inner.Eval(a)
}

// EvalBatch forwards to the inner oracle's batch interface, accounting
// exactly n queries.
func (o *Counter) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	o.mu.Lock()
	o.queries += int64(n)
	o.mu.Unlock()
	return AsBatch(o.inner).EvalBatch(patterns, n)
}

// evalOutput forwards to the inner oracle's one-output path, accounting
// exactly n queries.
func (o *Counter) evalOutput(patterns []bitvec.Word, n, po int) []bitvec.Word {
	o.mu.Lock()
	o.queries += int64(n)
	o.mu.Unlock()
	return EvalOutput(o.inner, patterns, n, po)
}

// Queries returns the number of queries issued so far.
func (o *Counter) Queries() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.queries
}

// EvalWords evaluates 64 parallel queries on any oracle (bit k of in[i] is
// input i of query k): one EvalBatch of 64 patterns, whose single lane
// word per input is the word itself.
func EvalWords(o Oracle, in []uint64) []uint64 {
	return EvalBatch(o, in, 64)
}

// Validate checks basic interface sanity of an oracle implementation: name
// counts match arities and Eval returns the declared number of outputs.
func Validate(o Oracle) error {
	if len(o.InputNames()) != o.NumInputs() {
		return fmt.Errorf("oracle: %d input names for %d inputs", len(o.InputNames()), o.NumInputs())
	}
	if len(o.OutputNames()) != o.NumOutputs() {
		return fmt.Errorf("oracle: %d output names for %d outputs", len(o.OutputNames()), o.NumOutputs())
	}
	out := o.Eval(make([]bool, o.NumInputs()))
	if len(out) != o.NumOutputs() {
		return fmt.Errorf("oracle: Eval returned %d outputs, want %d", len(out), o.NumOutputs())
	}
	return nil
}
