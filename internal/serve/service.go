// Package serve is the multi-tenant learning service: a session manager,
// a bounded job queue for long-running Learn requests, admission control
// with per-tenant quotas, and a metrics surface, layered on the ioserve
// wire protocol as a protocol-level extension (see wire.go).
//
// The layering, bottom to top:
//
//	oracle.Shared        the one handle every connection, session and job
//	                     queries
//	oracle.Memo          per-session query cache; per-job resume cache
//	ioserve.Server       the wire: greeting, v1 queries, v2 batch frames
//	serve.Wire           protocol v3 verbs: session, learn, job, cancel,
//	                     resume, result, stats
//	serve.Service        sessions, job queue, admission control, metrics
//
// # Admission control and backpressure
//
// Three gates bound the work a fleet of clients can force on the server,
// each rejecting with an error the transport marks transient so a
// ResilientClient-style caller backs off and retries instead of dying:
//
//	session quota   max live sessions, globally and per tenant
//	job quota       max active (queued+running) learn jobs per tenant
//	queue bound     a full job queue rejects immediately — submission
//	                never blocks a connection handler
//
// # Jobs, cancellation, resume
//
// A learn job runs core.Learn against the shared handle behind a private
// memo. Cancellation rides the core.Options.Cancel channel and lands at
// output boundaries; a cancelled job keeps its memo, and resuming re-runs
// the learn with the same seed — every previously answered query
// replays from the memo (the same machinery that makes fixed-seed learns
// survive connection drops), so the resumed result is byte-identical to an
// uninterrupted run at a fraction of the oracle cost.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"logicregression/internal/core"
	"logicregression/internal/oracle"
	"logicregression/internal/serve/metrics"
	"logicregression/internal/store"
)

// Admission errors. All three are wire-transient: the condition clears as
// load drains, so clients should back off and retry.
var (
	// ErrQueueFull rejects a learn submission when the job queue is at
	// capacity.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrJobQuota rejects a learn submission over the tenant's active-job
	// quota.
	ErrJobQuota = errors.New("serve: tenant job quota exceeded")
	// ErrSessionQuota rejects a session over the global or per-tenant
	// session quota.
	ErrSessionQuota = errors.New("serve: session quota exceeded")
	// ErrDraining rejects new sessions and jobs while the service shuts
	// down.
	ErrDraining = errors.New("serve: service is draining")
)

// maxSessions bounds live sessions across all tenants.
const maxSessions = 8192

// Config sizes the service. The zero value gives sane single-box defaults.
type Config struct {
	// MaxSessionsPerTenant bounds live sessions per tenant (default 1024).
	MaxSessionsPerTenant int
	// QueueDepth bounds queued (not yet running) learn jobs (default 64).
	QueueDepth int
	// Workers is the learn-job concurrency (default GOMAXPROCS, min 1).
	Workers int
	// MaxJobsPerTenant bounds a tenant's active — queued plus running —
	// learn jobs (default 4).
	MaxJobsPerTenant int
	// Learn is the base learner configuration; Seed, Progress, and Cancel
	// are overridden per job.
	Learn core.Options
	// Store, when non-nil, persists learning state across restarts: every
	// session and job memo is warm-started from the memo log and writes
	// through to it, completed jobs save their circuits, and a job whose
	// exact learn key (oracle identity + seed + options) is already stored
	// completes instantly from the circuit store. The store degrades to
	// memory-only on disk faults; learns are never affected.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.MaxSessionsPerTenant <= 0 {
		c.MaxSessionsPerTenant = 1024
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxJobsPerTenant <= 0 {
		c.MaxJobsPerTenant = 4
	}
	return c
}

// tenantState is one tenant's footprint for quota enforcement.
type tenantState struct {
	sessions   int
	activeJobs int // queued + running
}

// Service is the multi-tenant learning service over one black box.
type Service struct {
	base  oracle.Oracle // the box's oracle.Shared handle
	cfg   Config
	reg   *metrics.Registry
	store *store.Store    // nil when persistence is off
	ident oracle.Identity // the black box's identity, the circuit-store key root

	mu       sync.Mutex
	sessions map[string]*Session
	jobs     map[string]*Job
	tenants  map[string]*tenantState
	draining bool

	nextID  atomic.Int64
	queue   chan *Job
	workers sync.WaitGroup
	running atomic.Int64 // jobs currently inside core.Learn

	// Cached metric handles (hot path: no registry map lookups per query).
	mQueries      *metrics.Counter
	mFrames       *metrics.Counter
	mQPS          *metrics.Meter
	hQuery        *metrics.Histogram
	hLearn        *metrics.Histogram
	mJobsSub      *metrics.Counter
	mJobsDone     *metrics.Counter
	mJobsCanceled *metrics.Counter
	mJobsResumed  *metrics.Counter
	mRejQueue     *metrics.Counter
	mRejQuota     *metrics.Counter
	mSessOpened   *metrics.Counter
	mSessClosed   *metrics.Counter
	mStoreWarm    *metrics.Counter
}

// New builds a service over the black box's oracle.Shared handle and starts
// its worker pool; give the same handle to the ioserve.Server that carries
// the service. Call Drain to stop it.
func New(base oracle.Oracle, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		base:     oracle.Shared(base),
		cfg:      cfg,
		reg:      metrics.NewRegistry(),
		sessions: make(map[string]*Session),
		jobs:     make(map[string]*Job),
		tenants:  make(map[string]*tenantState),
		queue:    make(chan *Job, cfg.QueueDepth),
	}
	s.mQueries = s.reg.Counter("queries_total")
	s.mFrames = s.reg.Counter("query_frames_total")
	s.mQPS = s.reg.Meter("queries")
	s.hQuery = s.reg.Histogram("query_latency")
	s.hLearn = s.reg.Histogram("learn_latency")
	s.mJobsSub = s.reg.Counter("jobs_submitted")
	s.mJobsDone = s.reg.Counter("jobs_completed")
	s.mJobsCanceled = s.reg.Counter("jobs_canceled")
	s.mJobsResumed = s.reg.Counter("jobs_resumed")
	s.mRejQueue = s.reg.Counter("rejected_queue_full")
	s.mRejQuota = s.reg.Counter("rejected_quota")
	s.mSessOpened = s.reg.Counter("sessions_opened")
	s.mSessClosed = s.reg.Counter("sessions_closed")
	s.reg.Gauge("queue_depth", func() float64 { return float64(len(s.queue)) })
	s.reg.Gauge("jobs_running", func() float64 { return float64(s.running.Load()) })
	s.reg.Gauge("sessions_active", func() float64 { return float64(s.SessionCount()) })
	s.reg.Gauge("goroutines", func() float64 { return float64(runtime.NumGoroutine()) })
	s.reg.Gauge("memo_hit_rate", func() float64 { return s.MemoStats().HitRate() })
	if cfg.Store != nil {
		s.store = cfg.Store
		s.ident = oracle.IdentityOf(base)
		s.mStoreWarm = s.reg.Counter("store_warm_hits")
		s.reg.Gauge("store_memo_entries", func() float64 { return float64(s.store.Stats().MemoEntries) })
		s.reg.Gauge("store_log_bytes", func() float64 { return float64(s.store.Stats().MemoLogBytes) })
		s.reg.Gauge("store_circuits", func() float64 { return float64(s.store.Stats().Circuits) })
		s.reg.Gauge("store_dropped", func() float64 { return float64(s.store.Stats().Dropped) })
		s.reg.Gauge("store_degraded", func() float64 {
			if s.store.Degraded() {
				return 1
			}
			return 0
		})
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Registry exposes the service's metrics for HTTP export and snapshots.
func (s *Service) Registry() *metrics.Registry { return s.reg }

// Healthy reports whether the service accepts new work (false once
// draining).
func (s *Service) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// attachStore warm-starts a freshly built memo from the persistent store
// (preload + write-through hook) when persistence is configured. Preloaded
// answers came from the same deterministic black box, so warm-started
// learns stay byte-identical — only the hit/miss accounting changes.
func (s *Service) attachStore(m *oracle.Memo) {
	if s.store != nil {
		s.store.AttachMemo(m)
	}
}

// id mints a process-unique identifier with the given prefix.
func (s *Service) id(prefix string) string {
	return fmt.Sprintf("%s%d", prefix, s.nextID.Add(1))
}

// NewSession opens a session for a tenant.
func (s *Service) NewSession(tenant string) (*Session, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if len(s.sessions) >= maxSessions {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d sessions live", ErrSessionQuota, len(s.sessions))
	}
	t := s.tenant(tenant)
	if t.sessions >= s.cfg.MaxSessionsPerTenant {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q has %d sessions", ErrSessionQuota, tenant, t.sessions)
	}
	t.sessions++
	sess := newSession(s, s.id("s"), tenant)
	s.sessions[sess.ID] = sess
	s.mu.Unlock()
	s.mSessOpened.Inc()
	return sess, nil
}

// tenant returns the tenant record, creating it on first contact. Caller
// holds s.mu.
func (s *Service) tenant(name string) *tenantState {
	t, ok := s.tenants[name]
	if !ok {
		t = &tenantState{}
		s.tenants[name] = t
	}
	return t
}

// Session looks a live session up by ID.
func (s *Service) Session(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// SessionCount returns the number of live sessions.
func (s *Service) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// CloseSession ends a session and cancels its active jobs. Closing an
// unknown (or already closed) session is a no-op error.
func (s *Service) CloseSession(id string) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: unknown session %q", id)
	}
	delete(s.sessions, id)
	s.tenants[sess.Tenant].sessions--
	// Job records live as long as their session: terminal ones go now,
	// active ones are cancelled and pruned when a worker retires them —
	// collect results before closing the session.
	var cancel []string
	for jid, j := range s.jobs {
		if j.session != sess {
			continue
		}
		if j.Active() {
			cancel = append(cancel, jid)
		} else {
			delete(s.jobs, jid)
		}
	}
	s.mu.Unlock()
	sess.markClosed()
	for _, jid := range cancel {
		s.Cancel(jid)
	}
	s.mSessClosed.Inc()
	return nil
}

// Submit enqueues a learn job for a session at the given seed, enforcing
// the tenant job quota and the queue bound. It never blocks: a full queue
// rejects immediately with ErrQueueFull.
func (s *Service) Submit(sess *Session, seed int64) (*Job, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if sess.isClosed() {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: session %q is closed", sess.ID)
	}
	t := s.tenant(sess.Tenant)
	if t.activeJobs >= s.cfg.MaxJobsPerTenant {
		s.mu.Unlock()
		s.mRejQuota.Inc()
		return nil, fmt.Errorf("%w: tenant %q has %d active jobs", ErrJobQuota, sess.Tenant, t.activeJobs)
	}
	j := newJob(s, s.id("j"), sess, seed)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.mRejQueue.Inc()
		return nil, fmt.Errorf("%w: depth %d", ErrQueueFull, s.cfg.QueueDepth)
	}
	t.activeJobs++
	s.jobs[j.ID] = j
	s.mu.Unlock()
	s.mJobsSub.Inc()
	return j, nil
}

// Job looks a job up by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. A queued job cancels immediately;
// a running one finishes its current output and stops at the next
// boundary. Cancelling a finished job is an error.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: unknown job %q", id)
	}
	immediate, err := j.cancel()
	if err != nil {
		return err
	}
	if immediate {
		// Cancelled while still queued: the worker will skip it, so its
		// quota slot frees now.
		s.jobDone(j)
		s.mJobsCanceled.Inc()
	}
	return nil
}

// Resume re-enqueues a cancelled job. The job keeps its memo, so the
// re-run replays every already-answered query from cache; with the same
// seed the final netlist is byte-identical to an uninterrupted learn.
func (s *Service) Resume(id string) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: unknown job %q", id)
	}
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	t := s.tenant(j.Tenant)
	if t.activeJobs >= s.cfg.MaxJobsPerTenant {
		s.mu.Unlock()
		s.mRejQuota.Inc()
		return nil, fmt.Errorf("%w: tenant %q has %d active jobs", ErrJobQuota, j.Tenant, t.activeJobs)
	}
	if err := j.prepareResume(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	select {
	case s.queue <- j:
	default:
		// Roll the state transition back: the job stays cancelled and
		// resumable.
		j.unResume()
		s.mu.Unlock()
		s.mRejQueue.Inc()
		return nil, fmt.Errorf("%w: depth %d", ErrQueueFull, s.cfg.QueueDepth)
	}
	t.activeJobs++
	s.mu.Unlock()
	s.mJobsResumed.Inc()
	return j, nil
}

// jobDone releases a job's tenant quota slot and prunes the record when
// its session is already gone (nobody can fetch the result anymore).
func (s *Service) jobDone(j *Job) {
	s.mu.Lock()
	s.tenants[j.Tenant].activeJobs--
	if j.session.isClosed() {
		delete(s.jobs, j.ID)
	}
	s.mu.Unlock()
}

// worker drains the job queue until Drain closes it.
func (s *Service) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one learn job on a worker goroutine.
func (s *Service) run(j *Job) {
	cancel, ok := j.begin()
	if !ok {
		return // cancelled while queued; quota already released
	}
	s.running.Add(1)
	opts := s.cfg.Learn
	opts.Seed = j.Seed
	// The job memo handles caching (and must, for resume); a second memo
	// layer inside Learn would only shadow its hit counters.
	opts.MemoizeQueries = false
	opts.Cancel = cancel

	// Warm start: a stored circuit under this exact learn key (oracle
	// identity + seed + result-determining options) is byte-identical to
	// what core.Learn would produce, so the job completes instantly.
	var learnKey store.LearnKey
	if s.store != nil {
		learnKey = store.LearnKey{Identity: s.ident, Seed: j.Seed, Options: store.OptionsSig(opts)}
		if c, err := s.store.GetCircuit(learnKey); err == nil && c != nil {
			s.running.Add(-1)
			s.mStoreWarm.Inc()
			s.jobDone(j)
			s.mJobsDone.Inc()
			j.finish(&core.Result{Circuit: c, Size: c.Size(), SizeBeforeOpt: c.Size()})
			return
		}
	}
	userProgress := s.cfg.Learn.Progress
	opts.Progress = func(ev core.Progress) {
		j.noteProgress(ev)
		if userProgress != nil {
			userProgress(ev)
		}
	}
	start := time.Now()
	res := core.Learn(j.counter, opts)
	s.hLearn.Observe(time.Since(start))
	s.running.Add(-1)
	s.jobDone(j)
	if res.Canceled {
		s.mJobsCanceled.Inc()
	} else {
		s.mJobsDone.Inc()
	}
	// The tenant's job slot and the counters settle before Done fires, so
	// a caller it wakes reads them current.
	j.finish(res)
	// Persist a whole learn's circuit for future warm starts; partial ones
	// are not the learn key's true answer.
	if s.store != nil && store.Storable(opts, res) {
		s.store.PutCircuit(learnKey, res.Circuit)
	}
}

// Drain stops the service: new sessions and submissions are rejected,
// active jobs are cancelled (they stay resumable in principle — the memos
// survive until the process exits), and the call blocks until every worker
// has returned.
func (s *Service) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.workers.Wait()
		return
	}
	s.draining = true
	close(s.queue)
	var active []string
	for id, j := range s.jobs {
		if j.Active() {
			active = append(active, id)
		}
	}
	s.mu.Unlock()
	for _, id := range active {
		s.Cancel(id)
	}
	s.workers.Wait()
}

// MemoStats aggregates cache behaviour across every session and job memo —
// the service-wide hit rate the metrics surface reports.
func (s *Service) MemoStats() oracle.MemoStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total oracle.MemoStats
	for _, sess := range s.sessions {
		total = total.Add(sess.memo.Stats())
	}
	for _, j := range s.jobs {
		total = total.Add(j.memo.Stats())
	}
	return total
}
