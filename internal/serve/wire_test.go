package serve

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/ioserve"
	"logicregression/internal/oracle"
)

// startWireService stands a full stack up over the box on a loopback
// socket, as iogen -serve does: one shared handle for the service, its
// protocol extension and the ioserve server. Returns the address and the
// service.
func startWireService(t *testing.T, box oracle.Oracle, cfg Config) (string, *Service) {
	t.Helper()
	base := oracle.Shared(box)
	svc := New(base, cfg)
	srv := ioserve.NewServer(base)
	srv.Ext = svc.Wire()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Shutdown(ln, time.Second)
		svc.Drain()
	})
	return ln.Addr().String(), svc
}

// pollDone polls job status over the wire until the job leaves the active
// states.
func pollDone(t *testing.T, cl *Client, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := cl.JobStatus(id)
		if err != nil {
			t.Fatalf("JobStatus: %v", err)
		}
		if st.State == JobDone || st.State == JobCanceled {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWireEndToEnd(t *testing.T) {
	box := testBox()
	const seed = 11
	want := netlistText(t, core.Learn(oracle.FromCircuit(box), core.Options{Seed: seed}).Circuit)

	addr, _ := startWireService(t, oracle.FromCircuit(box), Config{Workers: 1})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	sid, err := cl.NewSession("acme")
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if !strings.HasPrefix(sid, "s") {
		t.Fatalf("session id %q", sid)
	}

	// Plain oracle queries still work on a v3 connection, now routed
	// through the session (and its memo).
	g := box
	in := []bool{true, true, false, true, false, true}
	wantOut := g.Eval(in)
	gotOut := cl.Eval(in)
	for i := range wantOut {
		if wantOut[i] != gotOut[i] {
			t.Fatalf("query through session diverged at output %d", i)
		}
	}

	jid, err := cl.Learn(seed)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	st := pollDone(t, cl, jid)
	if st.State != JobDone {
		t.Fatalf("job state = %s, want done", st.State)
	}
	if st.OutputsDone != 4 || st.TotalOut != 4 {
		t.Fatalf("status = %+v, want 4/4 outputs", st)
	}
	got, err := cl.NetlistText(jid)
	if err != nil {
		t.Fatalf("NetlistText: %v", err)
	}
	if got != want {
		t.Fatalf("wire netlist differs from in-process learn:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if cc, err := cl.Result(jid); err != nil || cc == nil {
		t.Fatalf("Result parse: %v", err)
	}

	snap, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if snap.Counters["jobs_completed"] != 1 {
		t.Fatalf("stats jobs_completed = %d, want 1", snap.Counters["jobs_completed"])
	}
	if snap.Counters["queries_total"] == 0 {
		t.Fatal("stats queries_total = 0")
	}

	if err := cl.CloseSession(); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if _, err := cl.Learn(seed); err == nil {
		t.Fatal("Learn without a session succeeded; want error")
	}
}

// wideBox is a 20-input black box: wide enough that clients can query
// patterns no other client repeats, with outputs of small support so a
// learn of it is quick.
func wideBox() *circuit.Circuit {
	c := circuit.New()
	x := make([]circuit.Signal, 20)
	for i := range x {
		x[i] = c.AddPI(fmt.Sprintf("x%d", i))
	}
	c.AddPO("y", c.Xor(c.And(x[0], x[1]), x[19]))
	c.AddPO("z", c.Or(c.And(x[3], x[7]), x[12]))
	return c
}

// setBits fills in with the low bits of v and returns it.
func setBits(in []bool, v int) []bool {
	for b := range in {
		in[b] = v>>b&1 == 1
	}
	return in
}

// TestSessionAttachFromSecondConnection is the redial story: client A opens
// a session, queries p and keeps querying, while client B dials, attaches
// to A's session and queries p. B must get the box's answer from the
// session memo, while both connections query the one session at once.
func TestSessionAttachFromSecondConnection(t *testing.T) {
	box := wideBox()
	addr, svc := startWireService(t, oracle.FromCircuit(box), Config{Workers: 1})
	a, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	sid, err := a.NewSession("acme")
	if err != nil {
		t.Fatal(err)
	}
	// p is the only pattern either client sends twice: A's later patterns
	// keep x19 clear, B's others set x19 and some lower bit.
	p := setBits(make([]bool, 20), 1<<19)
	if _, err := a.TryEval(p); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer close(done)
		in := make([]bool, 20)
		// Fewer distinct patterns than the session memo holds, so p is
		// never evicted.
		for v := 0; v < 4096; v++ {
			if _, err := a.TryEval(setBits(in, v)); err != nil {
				done <- err
				return
			}
			if v == 0 {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started

	b, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Attach(sid); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if b.SessionID() != sid {
		t.Fatalf("attached to %q, want %q", b.SessionID(), sid)
	}
	in := make([]bool, 20)
	for v := 0; v < 200; v++ {
		q := setBits(in, v|1<<19)
		got, err := b.TryEval(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := box.Eval(q); !slices.Equal(got, want) {
			t.Fatalf("B's query %v = %v, want %v", q, got, want)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("A: %v", err)
	}
	sess, ok := svc.Session(sid)
	if !ok {
		t.Fatalf("session %s gone", sid)
	}
	if hits := sess.MemoStats().Hits; hits != 1 {
		t.Fatalf("session memo hits = %d, want 1 (B's repeat of p)", hits)
	}
}

// TestServedUnsafeBoxOneCallAtATime serves, as iogen -serve does, a box that
// is not safe for concurrent use, and queries it at once from a plain
// connection, a session connection and a running learn job. The box must
// never see two calls at a time.
func TestServedUnsafeBoxOneCallAtATime(t *testing.T) {
	circ := wideBox()
	var calls int // unsynchronized on purpose: the race detector's witness
	var inFlight, maxIn atomic.Int64
	box := &oracle.FuncOracle{Ins: circ.PINames(), Outs: circ.PONames(), F: func(a []bool) []bool {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for m := maxIn.Load(); n > m; m = maxIn.Load() {
			if maxIn.CompareAndSwap(m, n) {
				break
			}
		}
		calls++
		runtime.Gosched() // widen the window another caller could use
		return circ.Eval(a)
	}}
	// The learn waits at its first phase until both connections query.
	gate := make(chan struct{})
	var opened sync.Once
	openGate := func() { opened.Do(func() { close(gate) }) }
	defer openGate() // never leave the worker blocked when the test fails
	addr, svc := startWireService(t, box, Config{Workers: 1, Learn: core.Options{
		Progress: func(ev core.Progress) {
			if ev.Phase == core.PhaseTemplates {
				<-gate
			}
		},
	}})

	plain, err := ioserve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	sc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.NewSession("acme"); err != nil {
		t.Fatal(err)
	}
	jid, err := sc.Learn(1)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := svc.Job(jid)
	if !ok {
		t.Fatalf("job %s unknown", jid)
	}
	jobDone := j.Done()

	// Each connection queries fresh patterns from before the learn starts
	// until it ends.
	started := make(chan struct{}, 2)
	errs := make(chan error, 2)
	for i, cl := range []oracle.Fallible{plain, sc} {
		go func(cl oracle.Fallible, from int) {
			in := make([]bool, 20)
			for n := 0; ; n++ {
				_, err := cl.TryEval(setBits(in, from+n))
				if n == 0 {
					started <- struct{}{}
				}
				if err != nil {
					errs <- err
					return
				}
				select {
				case <-jobDone:
					errs <- nil
					return
				default:
				}
			}
		}(cl, i<<19)
	}
	<-started
	<-started
	openGate()
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Status(); st.State != JobDone || st.Queries == 0 {
		t.Fatalf("job status %+v, want done after some queries", st)
	}
	if got := maxIn.Load(); got != 1 {
		t.Fatalf("%d calls were inside the box at once, want 1", got)
	}
}

func TestWireCancelResumeByteIdentical(t *testing.T) {
	box := testBox()
	const seed = 13
	want := netlistText(t, core.Learn(oracle.FromCircuit(box), core.Options{Seed: seed}).Circuit)

	// Same deterministic handshake as the in-process test: the learner
	// blocks at its first output boundary until the job ID arrives.
	cancelAtFirstOutput := make(chan string)
	var armed sync.Once
	var svc *Service
	base := oracle.FromCircuit(box)
	svc = New(base, Config{
		Workers: 1,
		Learn: core.Options{
			Progress: func(ev core.Progress) {
				if ev.Phase != core.PhaseOutput || ev.Output != 1 {
					return
				}
				armed.Do(func() {
					if err := svc.Cancel(<-cancelAtFirstOutput); err != nil {
						t.Errorf("Cancel: %v", err)
					}
				})
			},
		},
	})
	srv := ioserve.NewServer(base)
	srv.Ext = svc.Wire()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		srv.Shutdown(ln, time.Second)
		svc.Drain()
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.NewSession("acme"); err != nil {
		t.Fatal(err)
	}
	jid, err := cl.Learn(seed)
	if err != nil {
		t.Fatal(err)
	}
	cancelAtFirstOutput <- jid
	st := pollDone(t, cl, jid)
	if st.State != JobCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if _, err := cl.NetlistText(jid); err == nil {
		t.Fatal("result of a canceled job succeeded; want error")
	}
	if err := cl.ResumeJob(jid); err != nil {
		t.Fatalf("ResumeJob: %v", err)
	}
	st = pollDone(t, cl, jid)
	if st.State != JobDone || st.Resumes != 1 {
		t.Fatalf("after resume: %+v, want done with 1 resume", st)
	}
	got, err := cl.NetlistText(jid)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed wire netlist differs from uninterrupted learn")
	}
}

func TestWireAdmissionRejectionsAreTransient(t *testing.T) {
	gate := make(chan struct{})
	base := oracle.FromCircuit(testBox())
	svc := New(base, Config{
		Workers:          1,
		QueueDepth:       1,
		MaxJobsPerTenant: 8,
		Learn: core.Options{
			Progress: func(ev core.Progress) {
				if ev.Phase == core.PhaseTemplates {
					<-gate
				}
			},
		},
	})
	srv := ioserve.NewServer(base)
	srv.Ext = svc.Wire()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		// Unblock the worker before draining, or Drain waits forever.
		close(gate)
		srv.Shutdown(ln, time.Second)
		svc.Drain()
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.NewSession("acme"); err != nil {
		t.Fatal(err)
	}
	j1, err := cl.Learn(1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cl.JobStatus(j1)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never picked j1 up")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cl.Learn(2); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Learn(3)
	if err == nil {
		t.Fatal("learn into a full queue succeeded; want transient rejection")
	}
	if !oracle.IsTransient(err) {
		t.Fatalf("queue-full error %v is not transient; ResilientClient would not back off", err)
	}
	// The connection survives the rejection: the next verb still works.
	if _, err := cl.JobStatus(j1); err != nil {
		t.Fatalf("connection dead after rejection: %v", err)
	}
}

func TestDialRejectsV2OnlyServer(t *testing.T) {
	// A plain ioserve server (no extension) tops out at protocol v2.
	base := oracle.FromCircuit(testBox())
	srv := ioserve.NewServer(base)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(ln, time.Second)
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Fatal("Dial against a v2-only server succeeded; want protocol error")
	}
}
