package ioserve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"

	"logicregression/internal/bitvec"
	"logicregression/internal/cases"
	"logicregression/internal/oracle"
)

// xorOracle is a black box of any arity: output j is input j%nIn XOR input
// (3j+1)%nIn.
func xorOracle(nIn, nOut int) *oracle.FuncOracle {
	o := &oracle.FuncOracle{Ins: make([]string, nIn), Outs: make([]string, nOut)}
	for i := range o.Ins {
		o.Ins[i] = fmt.Sprintf("i%d", i)
	}
	for j := range o.Outs {
		o.Outs[j] = fmt.Sprintf("o%d", j)
	}
	o.F = func(a []bool) []bool {
		out := make([]bool, nOut)
		for j := range out {
			out[j] = a[j%nIn] != a[(3*j+1)%nIn]
		}
		return out
	}
	return o
}

// teeStream is the server's end of a pipe that also records every byte the
// client sends.
type teeStream struct {
	io.Reader
	io.Writer
}

// oldQueryLines is the per-bit encoder the word-level one replaced: the
// query lines of patterns [from, to), one character per input.
func oldQueryLines(patterns []bitvec.Word, n, nIn, from, to int) string {
	w := oracle.Words(n)
	var b bytes.Buffer
	for pat := from; pat < to; pat++ {
		for i := 0; i < nIn; i++ {
			if patterns[i*w+pat>>6]>>(uint(pat)&63)&1 == 1 {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestClientWireBytes records the client's byte stream over net.Pipe and
// compares it with the per-bit encoder's, over two frames and on a resume
// from an unaligned pattern, for one- and multi-word rows; every answer
// must match the scalar reference.
func TestClientWireBytes(t *testing.T) {
	for _, shape := range []struct{ nIn, nOut int }{{37, 2}, {130, 70}} {
		for _, start := range []int{0, 37} {
			// The names keep the v1=false label they had beside the
			// retired v1 cases, so results line up with earlier runs.
			name := fmt.Sprintf("in%d/out%d/v1=false/start=%d", shape.nIn, shape.nOut, start)
			t.Run(name, func(t *testing.T) {
				checkWireBytes(t, shape.nIn, shape.nOut, start)
			})
		}
	}
}

func checkWireBytes(t *testing.T, nIn, nOut, start int) {
	o := xorOracle(nIn, nOut)
	n := MaxFrame + 300
	srvEnd, cliEnd := net.Pipe()
	var sent bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewServer(o).serveStream(teeStream{Reader: io.TeeReader(srvEnd, &sent), Writer: srvEnd})
		srvEnd.Close()
	}()
	c, err := NewClientConn(cliEnd, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(int64(nIn + start)))
	w := oracle.Words(n)
	patterns := make([]bitvec.Word, nIn*w)
	for i := range patterns {
		patterns[i] = rng.Uint64()
	}
	want := oracle.EvalBatch(oracle.ScalarOnly(o), patterns, n)
	// A resume starts from the answers an earlier session banked.
	out := make([]bitvec.Word, nOut*w)
	for j := 0; j < nOut; j++ {
		for pat := 0; pat < start; pat++ {
			out[j*w+pat>>6] |= want[j*w+pat>>6] & (1 << uint(pat&63))
		}
	}
	got, err := c.evalBatchResume(patterns, n, start, out)
	if err != nil || got != n {
		t.Fatalf("evalBatchResume = %d, %v; want %d, nil", got, err, n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	var expect string
	for base := start; base < n; base += MaxFrame {
		k := min(n-base, MaxFrame)
		expect += fmt.Sprintf("batch %d\n", k) + oldQueryLines(patterns, n, nIn, base, base+k)
	}
	expect += "quit\n"
	if sent.String() != expect {
		t.Fatalf("client sent %d bytes that differ from the per-bit encoder's %d", sent.Len(), len(expect))
	}
	// Tail bits of the last word are don't-cares.
	for j := 0; j < nOut; j++ {
		for pat := 0; pat < n; pat++ {
			bit := uint(pat & 63)
			if out[j*w+pat>>6]>>bit&1 != want[j*w+pat>>6]>>bit&1 {
				t.Fatalf("output %d pattern %d differs from the scalar reference", j, pat)
			}
		}
	}
}

// TestOldClientBytes replays, over net.Pipe, the exact bytes a client that
// probes with "proto 2" before its first batch sends, and pins the
// server's reply bytes: the probe is still granted, and the batch and bare
// query answer as before.
func TestOldClientBytes(t *testing.T) {
	srvEnd, cliEnd := net.Pipe()
	go func() {
		NewServer(oracle.FromCircuit(golden())).serveStream(srvEnd)
		srvEnd.Close()
	}()
	sent := make(chan error, 1)
	go func() {
		_, err := io.WriteString(cliEnd, "proto 2\nbatch 3\n000\n110\n100\n011\nquit\n")
		sent <- err
	}()
	got, err := io.ReadAll(cliEnd)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	const want = "inputs a b d\noutputs z w\nok 2\nbatch 3\n00\n11\n01\n11\n"
	if string(got) != want {
		t.Fatalf("server replied %q, want %q", got, want)
	}
}

// BenchmarkWireFrame times one MaxFrame exchange over net.Pipe against
// case_10 (37 inputs, one key word): the client formats 16 384 query
// lines, the server parses them, simulates and formats the replies, and
// the client parses those.
func BenchmarkWireFrame(b *testing.B) {
	cs, err := cases.ByName("case_10")
	if err != nil {
		b.Fatal(err)
	}
	o := cs.Oracle()
	srvEnd, cliEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewServer(o).handle(srvEnd)
	}()
	c, err := NewClientConn(cliEnd, DialConfig{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	lanes := make([]bitvec.Word, o.NumInputs()*oracle.Words(MaxFrame))
	for i := range lanes {
		lanes[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EvalBatch(lanes, MaxFrame)
	}
	b.StopTimer()
	b.ReportMetric(MaxFrame, "patterns/op")
	c.Close()
	<-done
}

// TestWireErrorText pins the server's replies to malformed query lines,
// which the shared row codec must not change.
func TestWireErrorText(t *testing.T) {
	addr := startServer(t, oracle.FromCircuit(golden()))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewScanner(conn)
	r.Scan() // inputs
	r.Scan() // outputs
	for _, x := range []struct{ send, want string }{
		{"1x0\n", "error: bad bit 'x' at position 1"},
		{"11\n", "error: got 2 bits, want 3"},
		{"0000\n", "error: got 4 bits, want 3"},
		{"\xb1\xb00\n", "error: bad bit '±' at position 0"},
		{"batch 2\n110\n10\xb0\n", "error: batch line 2: bad bit '°' at position 2"},
	} {
		fmt.Fprint(conn, x.send)
		if !r.Scan() || r.Text() != x.want {
			t.Fatalf("sent %q: reply %q, want %q", x.send, r.Text(), x.want)
		}
	}
}
