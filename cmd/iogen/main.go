// Command iogen serves a black-box IO-relation generator over TCP, playing
// the role of the contest's external pattern-generator executable. Point
// logicreg -remote at it to learn across the wire. It answers bare query
// lines and batch frames from the greeting on (grammar in internal/ioserve).
//
//	iogen -case case_16 -listen 127.0.0.1:9000
//	iogen -netlist golden.net -listen :9000
//
// With -serve it becomes the multi-tenant learning service: protocol v3
// sessions, a bounded learn-job queue with cancel/resume, per-tenant
// admission control, and an optional HTTP metrics endpoint:
//
//	iogen -case case_16 -serve -metrics 127.0.0.1:9090
//
// SIGINT/SIGTERM drains gracefully: the listener closes immediately (new
// connections are refused), in-flight handlers get -drain-timeout to
// finish, then stragglers are severed.
//
// For fault drills the served black box and the transport can both
// misbehave on a deterministic, seeded schedule:
//
//	iogen -case case_7 -chaos-err-rate 0.05 -chaos-drop-after 40
//	iogen -case case_7 -chaos-fail-after 10000          # dies permanently
//	iogen -case case_7 -chaos-flip-rate 0.001           # silent wrong bits
//
// A resilient learner (logicreg -remote) must absorb the transient classes
// byte-identically, degrade cleanly on permanent death, and catch flipped
// bits in its final accuracy check.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"logicregression/internal/cases"
	"logicregression/internal/chaos"
	"logicregression/internal/check"
	"logicregression/internal/ioserve"
	"logicregression/internal/oracle"
	"logicregression/internal/serve"
	"logicregression/internal/serve/metrics"
	"logicregression/internal/store"
)

func main() {
	var (
		caseName    = flag.String("case", "", "built-in case name (case_1..case_20)")
		netlist     = flag.String("netlist", "", "circuit file to serve (format by extension: .blif, .v/.sv, .aag/.aig, else text netlist)")
		listen      = flag.String("listen", "127.0.0.1:9000", "listen address")
		readTimeout = flag.Duration("read-timeout", 2*time.Minute, "per-read deadline on client connections (0 = none); a stuck client is dropped instead of pinning a handler")

		metricsAddr  = flag.String("metrics", "", "serve /metrics and /healthz over HTTP on this address (requires -serve)")
		serveEnable  = flag.Bool("serve", false, "enable the multi-tenant learning service (protocol v3: sessions, learn jobs, admission control)")
		serveWorkers = flag.Int("serve-workers", 0, "learn-job worker concurrency (0 = GOMAXPROCS)")
		serveQueue   = flag.Int("serve-queue", 0, "learn-job queue depth (0 = default 64)")
		serveJobs    = flag.Int("serve-jobs-per-tenant", 0, "max active learn jobs per tenant (0 = default 4)")
		serveStore   = flag.String("store", "", "persistent store directory for the learning service: session/job memos warm-start from the log and finished circuits are reused across restarts (requires -serve)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGINT/SIGTERM drain waits for in-flight handlers before severing them")

		chaosSeed     = flag.Int64("chaos-seed", 1, "seed for the injected-fault schedule")
		chaosErrRate  = flag.Float64("chaos-err-rate", 0, "probability per query exchange of an injected transient error reply")
		chaosLatency  = flag.Duration("chaos-latency", 0, "added latency per query exchange")
		chaosFail     = flag.Int64("chaos-fail-after", 0, "kill the black box permanently after N query exchanges (0 = never)")
		chaosFlip     = flag.Float64("chaos-flip-rate", 0, "probability per output bit of silently flipping the answer")
		chaosDrop     = flag.Int("chaos-drop-after", 0, "drop each connection after N reply writes (0 = never)")
		chaosHang     = flag.Int("chaos-hang-after", 0, "hang each connection after N reply writes (0 = never)")
		chaosTruncate = flag.Int("chaos-truncate-after", 0, "truncate a reply and close after N reply writes (0 = never)")
		chaosCorrupt  = flag.Int("chaos-corrupt-after", 0, "corrupt reply bytes after N reply writes (0 = never)")
	)
	flag.Parse()

	var o oracle.Oracle
	switch {
	case *caseName != "":
		c, err := cases.ByName(*caseName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iogen:", err)
			os.Exit(1)
		}
		o = c.Oracle()
	case *netlist != "":
		c, err := check.ReadCircuitFile(*netlist)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iogen:", err)
			os.Exit(1)
		}
		o = oracle.FromCircuit(c)
	default:
		fmt.Fprintln(os.Stderr, "iogen: -case or -netlist is required")
		os.Exit(1)
	}

	oracleChaos := chaos.Config{
		Seed:      *chaosSeed,
		ErrRate:   *chaosErrRate,
		Latency:   *chaosLatency,
		FailAfter: *chaosFail,
		FlipRate:  *chaosFlip,
	}
	if oracleChaos != (chaos.Config{Seed: *chaosSeed}) {
		o = chaos.Wrap(o, oracleChaos)
		fmt.Fprintf(os.Stderr, "iogen: oracle chaos armed (seed=%d err=%g fail-after=%d flip=%g latency=%s)\n",
			*chaosSeed, *chaosErrRate, *chaosFail, *chaosFlip, *chaosLatency)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iogen:", err)
		os.Exit(1)
	}
	connChaos := chaos.ConnConfig{
		DropAfter:     *chaosDrop,
		HangAfter:     *chaosHang,
		TruncateAfter: *chaosTruncate,
		CorruptAfter:  *chaosCorrupt,
	}
	if wrapped := chaos.Listen(ln, connChaos); wrapped != ln {
		ln = wrapped
		fmt.Fprintf(os.Stderr, "iogen: transport chaos armed (drop=%d hang=%d truncate=%d corrupt=%d)\n",
			*chaosDrop, *chaosHang, *chaosTruncate, *chaosCorrupt)
	}

	// One handle for the server and the service alike: a box that is not
	// a circuit then answers one query at a time under a single lock.
	o = oracle.Shared(o)
	srv := ioserve.NewServer(o)
	srv.ReadTimeout = *readTimeout

	var svc *serve.Service
	var st *store.Store
	maxProto := 2
	if *serveEnable {
		if *serveStore != "" {
			// Persistence is additive: an unopenable store costs warm starts,
			// not the service. Recovery damage is reported, never hidden.
			var err error
			st, err = store.Open(store.Config{Dir: *serveStore})
			if err != nil {
				fmt.Fprintln(os.Stderr, "iogen: store disabled:", err)
				st = nil
			} else if info := st.Recovery(); info.Corrupt {
				fmt.Fprintln(os.Stderr, "iogen: store recovered with corruption:", info.CorruptDetail)
			} else if info.TruncatedBytes > 0 {
				fmt.Fprintf(os.Stderr, "iogen: store repaired a %d-byte torn tail from a previous crash\n", info.TruncatedBytes)
			}
		}
		svc = serve.New(o, serve.Config{
			Workers:          *serveWorkers,
			QueueDepth:       *serveQueue,
			MaxJobsPerTenant: *serveJobs,
			Store:            st,
		})
		srv.Ext = svc.Wire()
		maxProto = serve.WireProto
	} else {
		if *metricsAddr != "" {
			fmt.Fprintln(os.Stderr, "iogen: -metrics requires -serve")
			os.Exit(1)
		}
		if *serveStore != "" {
			fmt.Fprintln(os.Stderr, "iogen: -store requires -serve")
			os.Exit(1)
		}
	}

	metricsStop := make(chan struct{})
	var metricsDone <-chan struct{}
	if *metricsAddr != "" {
		addr, done, err := metrics.ListenAndServe(*metricsAddr, svc.Registry(), svc.Healthy, metricsStop)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iogen: metrics:", err)
			os.Exit(1)
		}
		metricsDone = done
		fmt.Fprintf(os.Stderr, "iogen: metrics on http://%s/metrics\n", addr)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM closes the listener (new
	// connections refused), gives in-flight handlers the drain window, then
	// severs stragglers. The signal goroutine owns the whole teardown and
	// closes drained when the server is quiet.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	draining := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		<-sigCh
		close(draining)
		fmt.Fprintf(os.Stderr, "iogen: draining (up to %s)...\n", *drainTimeout)
		srv.Shutdown(ln, *drainTimeout)
		close(drained)
	}()

	fmt.Fprintf(os.Stderr, "iogen: serving %d-in/%d-out black box on %s (proto <= %d)\n",
		o.NumInputs(), o.NumOutputs(), ln.Addr(), maxProto)
	serveErr := srv.Serve(ln)

	select {
	case <-draining:
		// Signal-initiated: wait out the drain, then stop the service and
		// the metrics endpoint.
		<-drained
		if svc != nil {
			svc.Drain()
		}
		if st != nil {
			// After Drain no worker is writing; flush the tail and seal.
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "iogen: store close:", err)
			}
		}
		close(metricsStop)
		if metricsDone != nil {
			<-metricsDone
		}
		fmt.Fprintln(os.Stderr, "iogen: drained, bye")
	default:
		if serveErr != nil {
			fmt.Fprintln(os.Stderr, "iogen:", serveErr)
			os.Exit(1)
		}
	}
}
