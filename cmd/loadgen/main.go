// Command loadgen simulates a fleet of concurrent clients against the
// multi-tenant learning service and publishes a benchmark report
// (BENCH_serve.json): sustained qps, query and learn latency quantiles,
// memo hit rate, admission-control behaviour, and a zero-goroutine-leak
// verdict.
//
// By default it is fully self-contained: it stands a service up in-process
// over an in-memory pipe transport (no sockets, no fd limits) and drives
// it — the configuration CI runs:
//
//	loadgen -case case_3 -clients 1000 -duration 5s -out BENCH_serve.json
//
// Point it at a live server instead with -addr:
//
//	loadgen -addr 127.0.0.1:9000 -clients 200 -duration 30s
//
// Or keep the self-hosted stack but run it over a real TCP socket, which
// exercises the OS network path (Nagle, fd churn, loopback scheduling)
// while keeping the leak gate and server-side metrics:
//
//	loadgen -listen tcp -case case_3 -clients 200 -duration 5s
//
// -listen accepts "tcp" (an ephemeral 127.0.0.1 port) or "tcp:HOST:PORT".
//
// Exit status: 0 on a clean run, 1 on client errors, 2 on a goroutine
// leak (self-hosted mode only — leaks on a remote server are invisible
// from here; scrape its /metrics goroutine gauge instead).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"logicregression/internal/cases"
	"logicregression/internal/ioserve"
	"logicregression/internal/oracle"
	"logicregression/internal/serve"
	"logicregression/internal/serve/metrics"
	"logicregression/internal/store"
)

type benchReport struct {
	Schema    string  `json:"schema"`
	Case      string  `json:"case,omitempty"`
	Addr      string  `json:"addr,omitempty"`
	Transport string  `json:"transport"`
	Clients   int     `json:"clients"`
	Tenants   int     `json:"tenants"`
	DurationS float64 `json:"duration_s"`

	QueriesSent int64   `json:"queries_sent"`
	QPS         float64 `json:"qps"`

	QueryLatency metrics.HistogramStats `json:"query_latency"`
	LearnLatency metrics.HistogramStats `json:"learn_latency"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsCanceled  int64 `json:"jobs_canceled"`
	JobsResumed   int64 `json:"jobs_resumed"`
	RejectedQueue int64 `json:"rejected_queue_full"`
	RejectedQuota int64 `json:"rejected_quota"`
	StoreWarmHits int64 `json:"store_warm_hits,omitempty"`

	MemoHitRate float64 `json:"memo_hit_rate"`

	GoroutinesBaseline int  `json:"goroutines_baseline"`
	GoroutinesPeak     int  `json:"goroutines_peak"`
	GoroutinesAfter    int  `json:"goroutines_after"`
	Leak               bool `json:"leak"`

	ClientErrors int      `json:"client_errors"`
	Errors       []string `json:"errors,omitempty"`

	Server *metrics.Snapshot `json:"server,omitempty"`
}

func main() {
	var (
		caseName = flag.String("case", "case_3", "built-in case for the self-hosted service")
		addr     = flag.String("addr", "", "drive an external v3 server instead of self-hosting")
		listen   = flag.String("listen", "", "self-hosted transport: '' = in-memory pipe, 'tcp' = ephemeral 127.0.0.1 port, 'tcp:HOST:PORT' = fixed address")
		clients  = flag.Int("clients", 1000, "concurrent client connections")
		tenants  = flag.Int("tenants", 97, "distinct tenant names the fleet spreads over")
		duration = flag.Duration("duration", 5*time.Second, "query-phase duration")
		learnDiv = flag.Int("learn-every", 50, "every Nth client also runs a learn job (0 = none)")
		seed     = flag.Int64("seed", 1, "fleet behaviour seed")
		out      = flag.String("out", "", "write the JSON report here ('' = stdout only)")
		storeDir = flag.String("store", "", "persistent store directory for the self-hosted service: learns warm-start from it and completed circuits are reused across runs (self-hosted mode only)")
	)
	flag.Parse()

	rep := benchReport{
		Schema:  "bench_serve/v1",
		Clients: *clients,
		Tenants: *tenants,
	}

	// Client-side observability through the same metrics package the
	// server uses.
	local := metrics.NewRegistry()
	hQuery := local.Histogram("client_query_latency")
	hLearn := local.Histogram("client_learn_latency")

	rep.GoroutinesBaseline = runtime.NumGoroutine()

	// dial yields fresh v3 connections; teardown stops the self-hosted
	// stack (nil in -addr mode).
	var dial func() (*serve.Client, error)
	var teardown func()
	var svc *serve.Service
	if *addr != "" {
		if *listen != "" {
			fmt.Fprintln(os.Stderr, "loadgen: -addr and -listen are mutually exclusive")
			os.Exit(1)
		}
		if *storeDir != "" {
			fmt.Fprintln(os.Stderr, "loadgen: -store only applies to the self-hosted service; pass it to the server instead")
			os.Exit(1)
		}
		rep.Transport, rep.Addr = "tcp", *addr
		dial = func() (*serve.Client, error) {
			return serve.DialWith(*addr, ioserve.DialConfig{IOTimeout: time.Minute})
		}
	} else {
		rep.Case = *caseName
		c, err := cases.ByName(*caseName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		base := c.Oracle()
		var st *store.Store
		if *storeDir != "" {
			st, err = store.Open(store.Config{Dir: *storeDir})
			if err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: store disabled:", err)
				st = nil
			}
		}
		svc = serve.New(base, serve.Config{Store: st})
		srv := ioserve.NewServer(base)
		srv.Ext = svc.Wire()

		// The self-hosted stack runs over an in-memory pipe by default;
		// -listen tcp swaps in a real socket without changing anything else
		// (same server, same leak gate, same metrics).
		var ln net.Listener
		var dialConn func() (net.Conn, error)
		switch {
		case *listen == "":
			pl := serve.NewPipeListener()
			ln, dialConn = pl, pl.Dial
			rep.Transport = "pipe"
		case *listen == "tcp" || strings.HasPrefix(*listen, "tcp:"):
			hostport := strings.TrimPrefix(*listen, "tcp")
			hostport = strings.TrimPrefix(hostport, ":")
			if hostport == "" {
				hostport = "127.0.0.1:0"
			}
			tl, err := net.Listen("tcp", hostport)
			if err != nil {
				fmt.Fprintln(os.Stderr, "loadgen:", err)
				os.Exit(1)
			}
			ln = tl
			rep.Transport, rep.Addr = "tcp-self", tl.Addr().String()
			dialConn = func() (net.Conn, error) {
				return net.DialTimeout("tcp", tl.Addr().String(), 10*time.Second)
			}
		default:
			fmt.Fprintf(os.Stderr, "loadgen: unknown -listen transport %q (want 'tcp' or 'tcp:HOST:PORT')\n", *listen)
			os.Exit(1)
		}

		serveDone := make(chan struct{})
		go func() {
			srv.Serve(ln)
			close(serveDone)
		}()
		dial = func() (*serve.Client, error) {
			conn, err := dialConn()
			if err != nil {
				return nil, err
			}
			return serve.NewClientConn(conn, ioserve.DialConfig{IOTimeout: time.Minute})
		}
		teardown = func() {
			ln.Close()
			srv.Shutdown(ln, 10*time.Second)
			<-serveDone
			svc.Drain()
			if st != nil {
				if err := st.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "loadgen: store close:", err)
				}
			}
		}
	}

	var (
		wg       sync.WaitGroup
		start    = make(chan struct{})
		queries  atomic.Int64
		peak     atomic.Int64
		errCount atomic.Int64
		errMu    sync.Mutex
		errSamp  []string
	)
	fail := func(format string, args ...any) {
		errCount.Add(1)
		errMu.Lock()
		if len(errSamp) < 10 {
			errSamp = append(errSamp, fmt.Sprintf(format, args...))
		}
		errMu.Unlock()
	}

	begin := time.Now()
	deadline := begin.Add(*duration)
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(id)))
			cl, err := dial()
			if err != nil {
				fail("client %d dial: %v", id, err)
				return
			}
			defer cl.Close()
			<-start
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			tenant := fmt.Sprintf("t%d", id%*tenants)
			if _, err := cl.NewSession(tenant); err != nil {
				fail("client %d session: %v", id, err)
				return
			}
			in := make([]bool, cl.NumInputs())

			learning := *learnDiv > 0 && id%*learnDiv == 0
			var jobID string
			if learning {
				jobID = submitWithBackoff(cl, rng.Int63(), fail, id)
			}

			for time.Now().Before(deadline) {
				for b := range in {
					in[b] = rng.Intn(2) == 1
				}
				t0 := time.Now()
				cl.Eval(in)
				hQuery.Observe(time.Since(t0))
				queries.Add(1)
			}

			if jobID != "" {
				t0 := time.Now()
				if waitJob(cl, jobID, fail, id) {
					hLearn.Observe(time.Since(t0))
				}
			}
			if err := cl.CloseSession(); err != nil {
				fail("client %d close: %v", id, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	elapsed := time.Since(begin)

	if teardown != nil {
		teardown()
	}

	rep.DurationS = elapsed.Seconds()
	rep.QueriesSent = queries.Load()
	rep.QPS = float64(rep.QueriesSent) / elapsed.Seconds()
	rep.QueryLatency = hQuery.Snapshot().Stats()
	rep.LearnLatency = hLearn.Snapshot().Stats()
	rep.GoroutinesPeak = int(peak.Load())
	rep.ClientErrors = int(errCount.Load())
	rep.Errors = errSamp

	if svc != nil {
		snap := svc.Registry().Snapshot()
		rep.Server = &snap
		rep.JobsSubmitted = snap.Counters["jobs_submitted"]
		rep.JobsCompleted = snap.Counters["jobs_completed"]
		rep.JobsCanceled = snap.Counters["jobs_canceled"]
		rep.JobsResumed = snap.Counters["jobs_resumed"]
		rep.RejectedQueue = snap.Counters["rejected_queue_full"]
		rep.RejectedQuota = snap.Counters["rejected_quota"]
		rep.StoreWarmHits = snap.Counters["store_warm_hits"]
		rep.MemoHitRate = snap.Gauges["memo_hit_rate"]

		// The leak gate: after a full teardown every handler, client, and
		// worker goroutine must be gone.
		settleBy := time.Now().Add(10 * time.Second)
		for {
			rep.GoroutinesAfter = runtime.NumGoroutine()
			if rep.GoroutinesAfter <= rep.GoroutinesBaseline+2 {
				break
			}
			if time.Now().After(settleBy) {
				rep.Leak = true
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
	}
	switch {
	case rep.Leak:
		fmt.Fprintf(os.Stderr, "loadgen: FAIL goroutine leak: %d live after teardown (baseline %d)\n",
			rep.GoroutinesAfter, rep.GoroutinesBaseline)
		os.Exit(2)
	case rep.ClientErrors > 0:
		fmt.Fprintf(os.Stderr, "loadgen: FAIL %d client errors\n", rep.ClientErrors)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "loadgen: ok — %d clients, %.0f qps, p99 query %.3fms, zero leaks\n",
		rep.Clients, rep.QPS, rep.QueryLatency.P99*1e3)
}

// submitWithBackoff submits a learn job, backing off on transient
// admission rejections the way a well-behaved client must. Returns "" if
// admission never succeeded (which is a legitimate outcome under quota
// pressure, not an error).
func submitWithBackoff(cl *serve.Client, seed int64, fail func(string, ...any), id int) string {
	for attempt := 0; attempt < 5; attempt++ {
		jid, err := cl.Learn(seed)
		if err == nil {
			return jid
		}
		if !oracle.IsTransient(err) {
			fail("client %d learn: non-transient %v", id, err)
			return ""
		}
		time.Sleep(time.Duration(attempt+1) * 20 * time.Millisecond)
	}
	return ""
}

// waitJob polls a job to completion.
func waitJob(cl *serve.Client, jobID string, fail func(string, ...any), id int) bool {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := cl.JobStatus(jobID)
		if err != nil {
			fail("client %d job status: %v", id, err)
			return false
		}
		switch st.State {
		case serve.JobDone:
			return true
		case serve.JobCanceled:
			fail("client %d job %s canceled unexpectedly", id, jobID)
			return false
		}
		if time.Now().After(deadline) {
			fail("client %d job %s stuck in %s", id, jobID, st.State)
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}
