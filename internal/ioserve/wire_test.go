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

// queuedWriter hands every write to a goroutine that forwards it to w, so
// the server never blocks on a client that is still writing its pipelined
// v1 chunk: net.Pipe has none of the socket buffers TCP would give it.
type queuedWriter struct{ q chan []byte }

func newQueuedWriter(w io.Writer) (*queuedWriter, <-chan struct{}) {
	qw := &queuedWriter{q: make(chan []byte, 1<<12)} // more than one test's reply writes
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for p := range qw.q {
			w.Write(p)
		}
	}()
	return qw, drained
}

func (w *queuedWriter) Write(p []byte) (int, error) {
	w.q <- append([]byte(nil), p...)
	return len(p), nil
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
// compares it with the per-bit encoder's, on v2 (two frames), on v1
// (pipelined chunks) and on resumes from an unaligned pattern, for one-
// and multi-word rows; every answer must match the scalar reference.
func TestClientWireBytes(t *testing.T) {
	for _, shape := range []struct{ nIn, nOut int }{{37, 2}, {130, 70}} {
		for _, v1 := range []bool{false, true} {
			for _, start := range []int{0, 37} {
				name := fmt.Sprintf("in%d/out%d/v1=%v/start=%d", shape.nIn, shape.nOut, v1, start)
				t.Run(name, func(t *testing.T) {
					checkWireBytes(t, shape.nIn, shape.nOut, v1, start)
				})
			}
		}
	}
}

func checkWireBytes(t *testing.T, nIn, nOut int, v1 bool, start int) {
	o := xorOracle(nIn, nOut)
	n := MaxFrame + 300
	if v1 {
		n = 1000
	}
	srvEnd, cliEnd := net.Pipe()
	var sent bytes.Buffer
	srv := NewServer(o)
	srv.V1Only = v1
	replies, drained := newQueuedWriter(srvEnd)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveStream(teeStream{Reader: io.TeeReader(srvEnd, &sent), Writer: replies})
		close(replies.q)
		<-drained
		srvEnd.Close()
	}()
	c, err := NewClientConn(cliEnd, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TryUpgrade(); got == v1 {
		t.Fatalf("TryUpgrade = %v against a v1-only=%v server", got, v1)
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

	expect := "proto 2\n"
	frame := MaxFrame
	if v1 {
		frame = v1PipelineChunk
	}
	for base := start; base < n; base += frame {
		k := min(n-base, frame)
		if !v1 {
			expect += fmt.Sprintf("batch %d\n", k)
		}
		expect += oldQueryLines(patterns, n, nIn, base, base+k)
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
	if !c.TryUpgrade() {
		b.Fatal("server refused v2")
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
