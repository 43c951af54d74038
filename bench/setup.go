package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"logicregression/internal/cases"
	"logicregression/internal/ioserve"
	"logicregression/internal/oracle"
)

// caseEnv is one case of a workload, ready to learn.
type caseEnv struct {
	c      *cases.Case
	golden oracle.Oracle
	// link serves golden over TCP on remote workloads; nil otherwise.
	link *remoteLink
}

// learnOracle is the black box an untraced learn of the case queries.
func (ce caseEnv) learnOracle() oracle.Oracle {
	if ce.link != nil {
		return ce.link.client
	}
	return ce.golden
}

// env is a workload after set-up.
type env struct {
	cases []caseEnv
}

func (e *env) close() {
	for _, ce := range e.cases {
		if ce.link != nil {
			ce.link.close()
		}
	}
}

// remoteLink is a case's black box over loopback TCP: an in-process
// ioserve server and one resilient client that has read the greeting and
// negotiated protocol v2.
type remoteLink struct {
	srv    *ioserve.Server
	ln     net.Listener
	served chan error
	client *ioserve.ResilientClient
	// sim times the server's oracle on traced runs; nil otherwise.
	sim *timer
}

func dialRemote(golden oracle.Oracle, traced bool) (*remoteLink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &remoteLink{ln: ln, served: make(chan error, 1)}
	served := golden
	if traced {
		l.sim = newTimer(golden)
		served = l.sim
	}
	l.srv = ioserve.NewServer(served)
	go func() { l.served <- l.srv.Serve(ln) }()
	l.client, err = ioserve.DialResilient(ln.Addr().String(), ioserve.DialConfig{}, ioserve.RetryConfig{})
	if err != nil {
		l.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	if p := l.client.Proto(); p != 2 {
		l.close()
		return nil, fmt.Errorf("server speaks protocol v%d, want v2", p)
	}
	return l, nil
}

// close ends the client session, shuts the server down and waits for its
// accept loop to return.
func (l *remoteLink) close() {
	if l.client != nil {
		l.client.Close()
	}
	l.srv.Shutdown(l.ln, time.Second)
	if err := <-l.served; !errors.Is(err, net.ErrClosed) {
		fmt.Fprintf(os.Stderr, "bench: server stopped with %v\n", err)
	}
}

// setup builds the workload's cases and oracle stacks; on remote workloads
// it also starts one server per case and dials it.
func setup(w workload, traced bool) (*env, error) {
	byName := make(map[string]*cases.Case)
	for _, c := range cases.All() {
		byName[c.Name] = c
	}
	e := &env{}
	for _, name := range w.cases {
		c, ok := byName[name]
		if !ok {
			e.close()
			return nil, fmt.Errorf("unknown case %q", name)
		}
		ce := caseEnv{c: c, golden: c.Oracle()}
		if w.remote {
			link, err := dialRemote(ce.golden, traced)
			if err != nil {
				e.close()
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			ce.link = link
		}
		e.cases = append(e.cases, ce)
	}
	return e, nil
}

// setupRepeats is how many times a run sets its workload up. setup_s is the
// median; the run learns on the last set-up and tears the others down.
const setupRepeats = 21

func timedSetup(w workload, traced bool) (*env, float64, error) {
	var e *env
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = setup(w, traced); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return e, median(times), nil
}
