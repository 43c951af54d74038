package serve

import (
	"sync"
	"time"

	"logicregression/internal/bitvec"
	"logicregression/internal/oracle"
)

// sessionMemo is the per-session query-cache capacity in entries: sessions
// are many, so each cache is modest.
const sessionMemo = oracle.DefaultMemoCapacity / 16

// Session is one tenant's live handle on the black box: the service's
// shared oracle handle behind a private memo, instrumented so every query
// lands in the service metrics. Sessions outlive connections — a client
// that drops and redials can re-attach by ID and keep its warm cache.
type Session struct {
	ID     string
	Tenant string

	svc    *Service
	memo   *oracle.Memo
	oracle oracle.Oracle // the instrumented chain handed to connections

	mu     sync.Mutex
	closed bool
}

func newSession(svc *Service, id, tenant string) *Session {
	s := &Session{ID: id, Tenant: tenant, svc: svc}
	s.memo = oracle.NewMemoCap(svc.base, sessionMemo)
	svc.attachStore(s.memo)
	s.oracle = &sessionOracle{svc: svc, inner: s.memo}
	return s
}

// Oracle returns the session's instrumented oracle: queries through it hit
// the session memo and count toward service metrics. Safe for concurrent
// use, so any number of connections may attach to one session.
func (s *Session) Oracle() oracle.Oracle { return s.oracle }

// MemoStats reports the session cache's hit/miss/eviction behaviour.
func (s *Session) MemoStats() oracle.MemoStats { return s.memo.Stats() }

func (s *Session) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// sessionOracle instruments a session's oracle chain: latency histograms,
// query counters and the qps meter. It adds no lock: the memo and the
// shared handle under it are both safe for concurrent use.
type sessionOracle struct {
	svc   *Service
	inner *oracle.Memo
}

func (o *sessionOracle) NumInputs() int        { return o.inner.NumInputs() }
func (o *sessionOracle) NumOutputs() int       { return o.inner.NumOutputs() }
func (o *sessionOracle) InputNames() []string  { return o.inner.InputNames() }
func (o *sessionOracle) OutputNames() []string { return o.inner.OutputNames() }

func (o *sessionOracle) Eval(a []bool) []bool {
	svc := o.svc
	start := time.Now()
	out := o.inner.Eval(a)
	svc.hQuery.Observe(time.Since(start))
	svc.mQueries.Inc()
	svc.mFrames.Inc()
	svc.mQPS.Add(1)
	return out
}

func (o *sessionOracle) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	svc := o.svc
	start := time.Now()
	out := o.inner.EvalBatch(patterns, n)
	svc.hQuery.Observe(time.Since(start))
	svc.mQueries.Add(int64(n))
	svc.mFrames.Inc()
	svc.mQPS.Add(int64(n))
	return out
}
