package serve

import (
	"fmt"
	"sync"

	"logicregression/internal/core"
	"logicregression/internal/oracle"
)

// JobState is a learn job's lifecycle position.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: inside core.Learn on a worker.
	JobRunning JobState = "running"
	// JobCanceling: cancel requested; the learner stops at the next output
	// boundary.
	JobCanceling JobState = "canceling"
	// JobCanceled: stopped before completion. Resumable — the memo holds
	// every answered query, so a resume replays them for free.
	JobCanceled JobState = "canceled"
	// JobDone: finished; the result netlist is available.
	JobDone JobState = "done"
)

// Job is one long-running learn request. It queries the service's shared
// handle through a private memo of the default capacity; the memo survives
// cancellation, which is what makes resume cheap and — with a fixed seed —
// byte-identical.
type Job struct {
	ID     string
	Tenant string
	Seed   int64

	session *Session
	memo    *oracle.Memo
	counter *oracle.Counter

	mu          sync.Mutex
	state       JobState
	cancelCh    chan struct{}
	cancelled   bool // cancelCh already closed this attempt
	done        chan struct{}
	phase       core.Phase
	outputsDone int
	totalOut    int
	resumes     int
	result      *core.Result
}

func newJob(svc *Service, id string, sess *Session, seed int64) *Job {
	j := &Job{
		ID:       id,
		Tenant:   sess.Tenant,
		Seed:     seed,
		session:  sess,
		state:    JobQueued,
		cancelCh: make(chan struct{}),
		done:     make(chan struct{}),
	}
	j.memo = oracle.NewMemo(svc.base)
	svc.attachStore(j.memo)
	j.counter = oracle.NewCounter(j.memo)
	return j
}

// Status is a point-in-time copy of a job's externally visible state.
type Status struct {
	ID          string     `json:"id"`
	State       JobState   `json:"state"`
	Phase       core.Phase `json:"phase"`
	OutputsDone int        `json:"outputs_done"`
	TotalOut    int        `json:"total_outputs"`
	Queries     int64      `json:"queries"`
	Resumes     int        `json:"resumes"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:          j.ID,
		State:       j.state,
		Phase:       j.phase,
		OutputsDone: j.outputsDone,
		TotalOut:    j.totalOut,
		Queries:     j.counter.Queries(),
		Resumes:     j.resumes,
	}
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Active reports whether the job holds a tenant quota slot (queued,
// running, or canceling — anything a worker has yet to retire).
func (j *Job) Active() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == JobQueued || j.state == JobRunning || j.state == JobCanceling
}

// Result returns the learn result once the job is done (nil before).
// A canceled job's partial result is not exposed; resume it instead.
func (j *Job) Result() *core.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone {
		return nil
	}
	return j.result
}

// MemoStats reports the job's resume-cache behaviour.
func (j *Job) MemoStats() oracle.MemoStats { return j.memo.Stats() }

// Done returns a channel closed when the current attempt reaches a
// terminal state (done or canceled). Resume replaces the channel, so grab
// it before resuming if you want to wait on the next attempt.
func (j *Job) Done() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// begin flips a queued job to running on a worker. It returns the attempt's
// cancel channel, or ok=false if the job was cancelled while queued.
func (j *Job) begin() (cancel <-chan struct{}, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return nil, false
	}
	j.state = JobRunning
	return j.cancelCh, true
}

// cancel requests cancellation. For a queued job the transition is
// immediate and the caller must release the quota slot; for a running job
// the worker observes the closed channel at the next boundary and retires
// the job itself.
func (j *Job) cancel() (immediate bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobQueued:
		j.state = JobCanceled
		close(j.cancelCh)
		j.cancelled = true
		close(j.done)
		return true, nil
	case JobRunning:
		j.state = JobCanceling
		if !j.cancelled {
			close(j.cancelCh)
			j.cancelled = true
		}
		return false, nil
	case JobCanceling:
		return false, nil // already on its way down
	default:
		return false, fmt.Errorf("serve: job %q is %s, not cancellable", j.ID, j.state)
	}
}

// finish retires a running job after core.Learn returns. A learn that
// completed before noticing a late cancel counts as done — the result is
// whole and byte-identical to an uninterrupted run.
func (j *Job) finish(res *core.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result = res
	if res.Canceled {
		j.state = JobCanceled
	} else {
		j.state = JobDone
	}
	close(j.done)
}

// prepareResume re-arms a cancelled job for another attempt: fresh cancel
// and done channels, same memo. Caller (Service.Resume) holds admission.
func (j *Job) prepareResume() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobCanceled {
		return fmt.Errorf("serve: job %q is %s, not resumable", j.ID, j.state)
	}
	j.state = JobQueued
	j.cancelCh = make(chan struct{})
	j.cancelled = false
	j.done = make(chan struct{})
	j.resumes++
	return nil
}

// unResume rolls prepareResume back when the queue rejects the re-entry.
func (j *Job) unResume() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = JobCanceled
	j.resumes--
	close(j.done)
}

// noteProgress records a learner progress event; runs synchronously on the
// worker goroutine.
func (j *Job) noteProgress(ev core.Progress) {
	j.mu.Lock()
	j.phase = ev.Phase
	if ev.Total > 0 {
		j.totalOut = ev.Total
	}
	if ev.Phase == core.PhaseOutput {
		j.outputsDone = ev.Output
	}
	j.mu.Unlock()
}
