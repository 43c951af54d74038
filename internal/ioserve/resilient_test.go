package ioserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"logicregression/internal/chaos"
	"logicregression/internal/oracle"
)

// fastRetry keeps drills quick: generous attempt budget, millisecond
// backoff.
func fastRetry() RetryConfig {
	return RetryConfig{MaxAttempts: 12, Backoff: time.Millisecond,
		MaxBackoff: 5 * time.Millisecond, Seed: 1}
}

func fastDial() DialConfig {
	return DialConfig{ConnectTimeout: 2 * time.Second, IOTimeout: 2 * time.Second}
}

// startChaosServer serves o behind a fault-injecting listener and returns
// the address.
func startChaosServer(t *testing.T, o oracle.Oracle, cfg chaos.ConnConfig) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go NewServer(o).Serve(chaos.Listen(ln, cfg))
	return ln.Addr().String()
}

// TestResilientSurvivesConnectionDrops runs scalar and batch queries against
// a server whose connections die every few replies. Every answer must match
// the direct oracle and the client must have actually reconnected.
//
// DropAfter is sized so one full MaxFrame batch reply (~13 socket writes)
// fits in a session: reconnect-resume makes progress only when the server
// survives at least one complete exchange per connection.
func TestResilientSurvivesConnectionDrops(t *testing.T) {
	g := golden()
	direct := oracle.FromCircuit(g)
	addr := startChaosServer(t, direct, chaos.ConnConfig{DropAfter: 30})

	cl, err := DialResilient(addr, fastDial(), fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for m := 0; m < 32; m++ {
		a := []bool{m&1 == 1, m>>1&1 == 1, m>>2&1 == 1}
		want := direct.Eval(a)
		got, err := cl.TryEval(a)
		if err != nil {
			t.Fatalf("query %d: %v", m, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d output %d wrong after reconnects", m, j)
			}
		}
	}
	// A multi-chunk batch across the churning transport.
	n := MaxFrame + 100
	lanes := wireLanes(3, cl.NumInputs(), n)
	want := oracle.EvalBatch(direct, lanes, n)
	got, err := cl.TryEvalBatch(lanes, n)
	if err != nil {
		t.Fatal(err)
	}
	if !lanesEqual(got, want, cl.NumOutputs(), n) {
		t.Fatal("batch through churning transport diverges from direct oracle")
	}
	if cl.Redials() == 0 {
		t.Fatal("DropAfter listener never forced a reconnect — the drill tested nothing")
	}
}

// TestResilientRetriesTransientReplies drives a black box that answers a
// third of all exchanges with "error: transient". Retry-in-place must absorb
// every one without reconnecting (the stream stays intact).
func TestResilientRetriesTransientReplies(t *testing.T) {
	g := golden()
	direct := oracle.FromCircuit(g)
	flaky := chaos.Wrap(direct, chaos.Config{Seed: 3, ErrRate: 0.3})
	addr := startChaosServer(t, flaky, chaos.ConnConfig{})

	cl, err := DialResilient(addr, fastDial(), fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for m := 0; m < 64; m++ {
		a := []bool{m&1 == 1, m>>1&1 == 1, m>>2&1 == 1}
		want := direct.Eval(a)
		got, err := cl.TryEval(a)
		if err != nil {
			t.Fatalf("query %d: %v", m, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d output %d wrong after retries", m, j)
			}
		}
	}
	if cl.Retries() == 0 {
		t.Fatal("30%% error rate produced zero retries — the drill tested nothing")
	}
	if cl.Redials() != 0 {
		t.Fatalf("transient replies forced %d reconnects; they must be retried in place", cl.Redials())
	}
}

// rawServer runs a hand-rolled server for greeting-level drills. Each
// accepted connection is passed to handle with its index (0-based).
func rawServer(t *testing.T, handle func(i int, conn net.Conn)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handle(i, conn)
		}
	}()
	return ln
}

// serveV1 plays a server that predates batch framing: it answers a fixed
// greeting and then bare queries with constant-zero outputs until
// dropQuery, where the connection is cut without a reply; "proto" and
// "batch" lines get "error: unknown command".
func serveV1(conn net.Conn, ins, outs string, dropQuery int) {
	defer conn.Close()
	fmt.Fprintf(conn, "inputs %s\noutputs %s\n", ins, outs)
	sc := bufio.NewScanner(conn)
	q := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "quit":
			return
		case strings.HasPrefix(line, "proto "), strings.HasPrefix(line, "batch "):
			fmt.Fprintln(conn, "error: unknown command")
		default:
			if q == dropQuery {
				return // cut mid-query: the client sees EOF
			}
			q++
			fmt.Fprintln(conn, strings.Repeat("0", len(strings.Fields(outs))))
		}
	}
}

// TestResilientServerChangedIsFatal reconnects to a server that now greets
// with different port names. That is a different black box: the client must
// fail permanently with ErrServerChanged, not resume against it.
func TestResilientServerChangedIsFatal(t *testing.T) {
	ln := rawServer(t, func(i int, conn net.Conn) {
		if i == 0 {
			serveV1(conn, "a b d", "z w", 1) // greet, answer one query, then cut
		} else {
			serveV1(conn, "a b", "z", -1) // a different black box
		}
	})
	cl, err := DialResilient(ln.Addr().String(), fastDial(), fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a := []bool{true, false, true}
	if _, err := cl.TryEval(a); err != nil {
		t.Fatalf("first query against healthy session: %v", err)
	}
	_, err = cl.TryEval(a)
	if !errors.Is(err, ErrServerChanged) {
		t.Fatalf("resumed against a different black box: err = %v", err)
	}
	if oracle.IsTransient(err) {
		t.Fatal("ErrServerChanged must be permanent, not transient")
	}
}

// TestResilientGivesUpWhenServerGone exhausts the attempt budget against a
// server that vanished, and the surfaced error must be permanent — retrying
// a dead address forever would hang the learn instead of degrading it.
func TestResilientGivesUpWhenServerGone(t *testing.T) {
	ln := rawServer(t, func(i int, conn net.Conn) {
		serveV1(conn, "a b d", "z w", 0) // greet then cut on the first query
	})
	retry := RetryConfig{MaxAttempts: 3, Backoff: time.Millisecond,
		MaxBackoff: 2 * time.Millisecond, Seed: 1}
	cl, err := DialResilient(ln.Addr().String(), fastDial(), retry)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ln.Close() // no reconnect target

	_, err = cl.TryEval([]bool{true, false, true})
	if err == nil {
		t.Fatal("query against a vanished server succeeded")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("expected an exhausted-budget error, got: %v", err)
	}
	if oracle.IsTransient(err) {
		t.Fatal("an exhausted retry budget must surface as permanent, not transient")
	}
}

// TestResilientCloseDuringServerChurn tears the client down while worker
// goroutines hammer it across a transport that drops every few replies.
// Under -race this checks the session lock; functionally, nothing may panic
// and post-Close operations must fail with ErrClientClosed.
func TestResilientCloseDuringServerChurn(t *testing.T) {
	addr := startChaosServer(t, oracle.FromCircuit(golden()), chaos.ConnConfig{DropAfter: 4})
	cl, err := DialResilient(addr, fastDial(), fastRetry())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; ; q++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once Close lands; panics are not.
				cl.TryEval([]bool{q&1 == 1, w&1 == 1, true})
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	if err := cl.Close(); err != nil {
		t.Errorf("Close during churn: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Errorf("second Close not idempotent: %v", err)
	}
	close(stop)
	wg.Wait()

	if _, err := cl.TryEval([]bool{true, true, true}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("query after Close: err = %v, want ErrClientClosed", err)
	}
}

// TestClientCloseIdempotentAndReportsFlushError covers the polite-quit
// contract: Close on a healthy session flushes "quit" and succeeds, a second
// Close is a no-op, and Close over an already-severed transport reports the
// failure instead of swallowing it.
func TestClientCloseIdempotentAndReportsFlushError(t *testing.T) {
	addr := startServer(t, oracle.FromCircuit(golden()))

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close on healthy session: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := cl.TryEval([]bool{true, false, true}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("TryEval after Close: err = %v, want ErrClientClosed", err)
	}

	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cl2.conn.Close() // sever the transport behind the client's back
	if err := cl2.Close(); err == nil {
		t.Fatal("Close over a severed transport reported success")
	}
}

// TestDialClosesConnOnBadGreeting checks the no-fd-leak contract: when the
// greeting is garbage the client must close the socket, which the server
// observes as EOF.
func TestDialClosesConnOnBadGreeting(t *testing.T) {
	sawEOF := make(chan error, 1)
	ln := rawServer(t, func(i int, conn net.Conn) {
		defer conn.Close()
		fmt.Fprintln(conn, "hello there")
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := conn.Read(make([]byte, 1))
		sawEOF <- err
	})
	if _, err := DialWith(ln.Addr().String(), fastDial()); err == nil {
		t.Fatal("Dial accepted a garbage greeting")
	}
	if err := <-sawEOF; err == nil {
		t.Fatal("client kept the socket open after a failed Dial")
	}
}

// TestResilientBatchRejectedByV1OnlyServer pins a new client against an old
// server: a server without batch framing answers the batch header with
// "error: unknown command". That is a rejected request, not a transport
// fault, so TryEvalBatch fails permanently on its first attempt, without a
// retry or a redial.
func TestResilientBatchRejectedByV1OnlyServer(t *testing.T) {
	ln := rawServer(t, func(i int, conn net.Conn) {
		serveV1(conn, "a b d", "z w", -1)
	})
	cl, err := DialResilient(ln.Addr().String(), fastDial(), fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	n := 100
	_, err = cl.TryEvalBatch(wireLanes(7, cl.NumInputs(), n), n)
	if err == nil || !strings.Contains(err.Error(), "rejected batch") {
		t.Fatalf("batch against a v1-only server: err = %v, want a rejected batch", err)
	}
	if oracle.IsTransient(err) {
		t.Fatal("a rejected batch must surface as permanent, not transient")
	}
	if cl.Retries() != 0 || cl.Redials() != 0 {
		t.Fatalf("rejected batch cost %d retries and %d redials, want none", cl.Retries(), cl.Redials())
	}
}

// TestResilientResumesAcrossDrops pins the batch-resume path: the transport
// drops each connection a few socket writes into a frame's reply, so no
// session can carry a whole frame — progress only happens because banked
// replies survive the redial (and banked progress refills the attempt
// budget). Completing a batch of several frames therefore requires far
// more sessions than MaxAttempts, which a fixed budget would forbid.
func TestResilientResumesAcrossDrops(t *testing.T) {
	g := golden()
	// A MaxFrame reply takes about 13 writes; each session gets the greeting
	// and two reply writes.
	addr := startChaosServer(t, oracle.FromCircuit(g), chaos.ConnConfig{DropAfter: 3})
	retry := fastRetry()
	cl, err := DialResilient(addr, fastDial(), retry)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	n := 4 * MaxFrame
	lanes := wireLanes(5, cl.NumInputs(), n)
	want := oracle.EvalBatch(oracle.FromCircuit(g), lanes, n)
	got, err := cl.TryEvalBatch(lanes, n)
	if err != nil {
		t.Fatal(err)
	}
	if !lanesEqual(got, want, cl.NumOutputs(), n) {
		t.Fatal("resumed batch diverges from direct evaluation")
	}
	if cl.Redials() <= int64(retry.MaxAttempts) {
		t.Fatalf("batch finished in %d redials (budget %d) — the drill never exercised resume",
			cl.Redials(), retry.MaxAttempts)
	}
}
