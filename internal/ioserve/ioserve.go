// Package ioserve exposes an Oracle over TCP, modelling the 2019 contest's
// external iogen pattern generator: the learner talks to a black box it does
// not host.
//
// Protocol grammar (all lines '\n'-terminated ASCII; <ibits> is one '0'/'1'
// per input in input order, <obits> one per output):
//
//	session  = greeting { exchange } [ "quit" ]
//	greeting = "inputs"  { SP name } LF
//	           "outputs" { SP name } LF
//
//	query exchange:
//	  client: <ibits> LF
//	  server: <obits> LF               — or "error:" message LF; the
//	                                     connection stays usable either way
//
//	batch exchange:
//	  client: "batch" SP k LF, then k lines of <ibits>
//	  server: "batch" SP k LF, then k lines of <obits>
//	        | "error:" message LF      — whole batch rejected, connection
//	                                     stays usable (all k query lines are
//	                                     consumed first)
//
//	level probe:
//	  client: "proto" SP v LF          — v >= 2
//	  server: "ok" SP g LF             — g = min(v, highest level served)
//
// Both exchanges are open from the greeting on: a batch needs no probe, and
// a client that sends only query lines never sees any other token. The
// probe stays for two reasons: clients that send "proto 2" before their
// first batch still get "ok 2", and "proto 3" unlocks the verbs of a
// service extension (see Extension). A batch frame amortizes one network
// round trip over k queries; the Client frames large EvalBatch calls into
// at most MaxFrame queries each.
//
// Both ends encode and parse <ibits>/<obits> lines a word at a time: 64
// patterns of a batch become 64 rows by one bit transpose, and a row
// becomes its characters eight at a time (bitvec.FormatRow/ParseRow). The
// codec is internal: the grammar above is exactly what goes on the wire.
//
// # Failure model
//
// Error replies carry a severity prefix so clients can tell a fault they
// should retry from one they must surface (see DESIGN.md "failure model"):
//
//	"error: transient: <msg>"  — the query failed but the session is intact;
//	                             re-issuing the same query may succeed
//	"error: fatal: <msg>"      — the black box is permanently unavailable;
//	                             the server closes the connection after this
//	"error: <msg>"             — the query itself was malformed (a client
//	                             bug, not a transport fault)
//
// A server whose oracle implements oracle.Fallible maps transient errors to
// "error: transient:" lines and permanent errors to "error: fatal:" lines;
// infallible oracles never produce either. On the client side, Client turns
// transport failures into errors tagged transient (timeouts, resets, dropped
// connections, desynchronized replies) or left permanent ("error: fatal:",
// rejected well-formed queries); ResilientClient retries the transient class
// with reconnection and capped backoff.
package ioserve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"logicregression/internal/bitvec"
	"logicregression/internal/oracle"
)

// MaxFrame is the maximum number of queries per batch frame, bounding
// per-frame server memory. Larger EvalBatch calls are split transparently.
const MaxFrame = 1 << 14

// maxLine caps the length of a single reply line and, server-side, a
// single query line.
const maxLine = 1 << 20

// Sentinel errors of the client lifecycle.
var (
	// ErrClientClosed is returned by operations on a closed client.
	ErrClientClosed = errors.New("ioserve: client is closed")
	// ErrServerChanged is returned (fatally) when a reconnect reaches a
	// server whose port-name greeting differs from the original session's:
	// the black box changed under us and cached answers would be lies.
	ErrServerChanged = errors.New("ioserve: server identity changed across reconnect")
)

// wireTransientError is an "error: transient:" reply: the query failed
// server-side but the connection is still synchronized, so the caller may
// retry in place without redialing.
type wireTransientError struct {
	msg string
}

func (e *wireTransientError) Error() string { return "ioserve: " + e.msg }

// isWireTransient reports whether err is a retry-in-place server reply.
func isWireTransient(err error) bool {
	var we *wireTransientError
	return errors.As(err, &we)
}

// transportErr tags a connection-level failure for the retry layer: almost
// everything (timeouts, resets, EOF, desynchronized streams) is transient —
// a fresh connection may succeed — except our own net.ErrClosed, which means
// the client was torn down locally on purpose.
func transportErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, net.ErrClosed) {
		return err
	}
	return oracle.Transient(err)
}

// Extension hooks service-level commands into the wire protocol: a server
// with an extension installed advertises the extension's protocol level
// during "proto" negotiation and consults it for any command line the core
// protocol does not recognize on sessions that negotiated level 3 or above.
// The multi-tenant learning service (internal/serve) is the canonical
// extension: it adds session, learn-job, and stats verbs on top of the
// query protocol without this package knowing any of their grammar.
//
// Extensions must be safe for concurrent calls: every connection handler
// goroutine dispatches into the same Extension value.
type Extension interface {
	// MaxProto is the highest protocol version the extension speaks
	// (>= 3; versions 1 and 2 are owned by the core protocol).
	MaxProto() int
	// Handle processes one command line on a connection that negotiated
	// protocol >= 3. It returns handled=false to fall through to the core
	// protocol (which will treat the line as a bare bit-string query), and
	// keep=false to drop the connection (an unrecoverable stream state).
	// Handle replies via c.Reply / c.ReplyLines.
	Handle(c *Conn, line string) (handled, keep bool)
}

// Server serves a black box to any number of concurrent clients. Every
// connection queries the one handle oracle.Shared gives for the box: a
// circuit runs lock-free across connections, any other box answers one
// query at a time.
type Server struct {
	inner oracle.Oracle

	// handlers counts in-flight connection goroutines so Shutdown can
	// drain them after the listener closes.
	handlers sync.WaitGroup

	// connMu guards conns, the live sockets Shutdown force-closes when a
	// drain deadline expires.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// ReadTimeout, when positive, arms a fresh read deadline before every
	// read on a client connection: a client that stops mid-frame (or never
	// sends anything) is dropped instead of pinning its handler goroutine
	// forever. Combined with the MaxFrame guard and the bounded line
	// scanner this caps the resources any one connection can hold.
	ReadTimeout time.Duration

	// Ext, when non-nil, extends the protocol with service-level verbs
	// (see Extension). Set it before Serve; it must not change while
	// connections are live.
	Ext Extension
}

// NewServer serves the box through its oracle.Shared handle; give the same
// handle to every other layer that queries the box.
func NewServer(o oracle.Oracle) *Server { return &Server{inner: oracle.Shared(o)} }

// Serve accepts connections until the listener is closed. It returns the
// listener's error (net.ErrClosed after a clean shutdown). Handler
// goroutines may still be draining when Serve returns; Shutdown drains
// them.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			s.handle(conn)
		}()
	}
}

// trackConn registers a live socket for Shutdown's force-close path.
func (s *Server) trackConn(c net.Conn) {
	s.connMu.Lock()
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
}

// untrackConn removes a socket once its handler exits.
func (s *Server) untrackConn(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// CloseActiveConns severs every live client connection and returns how many
// it closed. In-flight handlers observe the close as a read/write error and
// exit; use it when a graceful drain must be cut short.
func (s *Server) CloseActiveConns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for c := range s.conns {
		c.Close()
	}
	n := len(s.conns)
	return n
}

// Shutdown closes the listener (new connections stop being accepted; the
// blocked Serve call returns net.ErrClosed), then drains in-flight
// handlers. A positive drain bounds the wait: handlers still running when
// it expires have their connections severed and are then waited for. A
// non-positive drain waits indefinitely — with ReadTimeout armed even idle
// clients are eventually dropped, so the wait terminates. The returned
// error is the listener's Close error, if any.
func (s *Server) Shutdown(ln net.Listener, drain time.Duration) error {
	err := ln.Close()
	done := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(done)
	}()
	if drain > 0 {
		t := time.NewTimer(drain)
		select {
		case <-done:
			t.Stop()
		case <-t.C:
			s.CloseActiveConns()
			<-done
		}
	} else {
		<-done
	}
	return err
}

// deadlineConn arms a read deadline before every Read so a silent peer
// cannot block a handler (or a client) forever. Write deadlines ride along:
// a peer that stops draining stalls the same way a silent sender does.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

func (s *Server) handle(conn net.Conn) {
	s.trackConn(conn)
	defer s.untrackConn(conn)
	defer conn.Close()
	var stream io.ReadWriter = conn
	if s.ReadTimeout > 0 {
		stream = &deadlineConn{Conn: conn, timeout: s.ReadTimeout}
	}
	s.serveStream(stream)
}

// Conn is the server side of one protocol session: the byte stream plus the
// per-connection state the protocol loop threads through commands. The core
// protocol owns the query paths; extensions see the Conn in Handle and may
// rebind its oracle (BindOracle) so subsequent queries are answered — and
// accounted — by a service-level session.
type Conn struct {
	w  *bufio.Writer
	sc *bufio.Scanner

	proto int // negotiated protocol level (1 until a "proto" exchange)
	fo    oracle.FallibleBatch
	nIn   int

	// A batch frame's buffers, kept for the connection's next frame: its
	// query lanes, a block of 64 query rows, a block of 64 reply rows and
	// the reply line.
	lanes, rows, orows []bitvec.Word
	line               []byte

	// State is extension scratch (e.g. the attached session); the core
	// protocol never touches it.
	State any
}

// BindOracle reroutes the connection's query paths through o, which must
// describe the same black box (identical port arities) and be safe for
// concurrent use: other connections may query it at the same time.
// Extensions use it to bind a connection to a session-owned oracle so
// queries hit the session's cache and accounting.
func (c *Conn) BindOracle(o oracle.Oracle) {
	c.fo = oracle.AsFallible(o)
	c.nIn = o.NumInputs()
}

// Reply writes one protocol line and flushes it, reporting whether the
// connection is still usable.
func (c *Conn) Reply(line string) bool {
	if _, err := c.w.WriteString(line + "\n"); err != nil {
		return false
	}
	return c.w.Flush() == nil
}

// ReplyLines writes a multi-line reply under a single flush (one network
// write for a whole result frame).
func (c *Conn) ReplyLines(lines []string) bool {
	for _, line := range lines {
		if _, err := c.w.WriteString(line + "\n"); err != nil {
			return false
		}
	}
	return c.w.Flush() == nil
}

// replyEvalErr renders an oracle failure on the wire; it returns false
// when the connection must be dropped (write failure or a permanently
// dead oracle).
func (c *Conn) replyEvalErr(err error) bool {
	if oracle.IsTransient(err) {
		return c.Reply(fmt.Sprintf("error: transient: %v", err))
	}
	c.Reply(fmt.Sprintf("error: fatal: %v", err))
	return false
}

// maxProto is the highest protocol level this server will grant.
func (s *Server) maxProto() int {
	maxP := 2
	if s.Ext != nil {
		if m := s.Ext.MaxProto(); m > maxP {
			maxP = m
		}
	}
	return maxP
}

// serveStream speaks the wire protocol over any byte stream. Separating it
// from the connection lifecycle lets tests and the frame-parser fuzz target
// drive the protocol without sockets.
func (s *Server) serveStream(stream io.ReadWriter) {
	c := &Conn{w: bufio.NewWriter(stream), sc: bufio.NewScanner(stream), proto: 1}
	c.BindOracle(s.inner)
	c.sc.Buffer(make([]byte, 1<<16), maxLine)
	fmt.Fprintf(c.w, "inputs %s\n", strings.Join(s.inner.InputNames(), " "))
	fmt.Fprintf(c.w, "outputs %s\n", strings.Join(s.inner.OutputNames(), " "))
	if c.w.Flush() != nil {
		return
	}
	for c.sc.Scan() {
		line := strings.TrimSpace(c.sc.Text())
		switch {
		case line == "quit":
			return

		case strings.HasPrefix(line, "proto "):
			// Grant the lower of the requested and served levels; any
			// request >= 2 succeeds (a v2-only client gets exactly "ok 2"
			// back, byte-identical to the pre-extension protocol).
			v, err := strconv.Atoi(strings.TrimPrefix(line, "proto "))
			if err != nil || v < 2 {
				if !c.Reply(fmt.Sprintf("error: unsupported protocol %q", strings.TrimPrefix(line, "proto "))) {
					return
				}
				continue
			}
			granted := min(v, s.maxProto())
			c.proto = granted
			if !c.Reply(fmt.Sprintf("ok %d", granted)) {
				return
			}

		case strings.HasPrefix(line, "batch "):
			k, err := strconv.Atoi(strings.TrimPrefix(line, "batch "))
			if err != nil || k < 1 || k > MaxFrame {
				// The declared frame length cannot be trusted, so the
				// stream cannot be resynchronized; drop the connection.
				c.Reply(fmt.Sprintf("error: bad batch size %q", strings.TrimPrefix(line, "batch ")))
				return
			}
			// Consume all k query lines before validating, keeping the
			// connection usable after a malformed line. Each line decodes
			// into a row; every 64 rows transpose into one word per lane.
			lw := oracle.Words(k)
			lanes := grow(&c.lanes, c.nIn*lw)
			clear(lanes) // RowsToLanes ORs into it
			kw := bitvec.RowWords(c.nIn)
			rows := grow(&c.rows, 64*kw)
			var lineErr error
			for q := 0; q < k; q++ {
				if !c.sc.Scan() {
					return
				}
				p := q & 63
				if err := parseRow(rows[p*kw:(p+1)*kw], bytes.TrimSpace(c.sc.Bytes()), c.nIn); err != nil && lineErr == nil {
					lineErr = fmt.Errorf("batch line %d: %v", q+1, err)
				}
				if p == 63 || q == k-1 {
					bitvec.RowsToLanes(lanes, lw, c.nIn, q>>6, rows[:(p+1)*kw])
				}
			}
			if lineErr != nil {
				if !c.Reply("error: " + lineErr.Error()) {
					return
				}
				continue
			}
			out, err := c.fo.TryEvalBatch(lanes, k)
			if err != nil {
				if !c.replyEvalErr(err) {
					return
				}
				continue
			}
			fmt.Fprintf(c.w, "batch %d\n", k)
			nOut := c.fo.NumOutputs()
			ow := bitvec.RowWords(nOut)
			orows := grow(&c.orows, 64*ow)
			buf := grow(&c.line, nOut+1)
			buf[nOut] = '\n'
			for q := 0; q < k; q++ {
				p := q & 63
				if p == 0 {
					bitvec.LanesToRows(orows, out, lw, nOut, q>>6)
				}
				bitvec.FormatRow(buf[:nOut], orows[p*ow:(p+1)*ow])
				c.w.Write(buf)
			}
			if c.w.Flush() != nil {
				return
			}

		default:
			if s.Ext != nil && c.proto >= 3 {
				handled, keep := s.Ext.Handle(c, line)
				if handled {
					if !keep {
						return
					}
					continue
				}
			}
			assign, err := parseBits([]byte(line), c.nIn)
			if err != nil {
				if !c.Reply(fmt.Sprintf("error: %v", err)) {
					return
				}
				continue
			}
			res, err := c.fo.TryEval(assign)
			if err != nil {
				if !c.replyEvalErr(err) {
					return
				}
				continue
			}
			if !c.Reply(formatBits(res)) {
				return
			}
		}
	}
}

// grow resizes *buf to n elements, reallocating only when it is too short,
// and returns it. The contents are not cleared.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// parseRow decodes one <ibits>/<obits> line of want characters into row
// (RowWords(want) words).
func parseRow(row []bitvec.Word, line []byte, want int) error {
	if len(line) != want {
		return fmt.Errorf("got %d bits, want %d", len(line), want)
	}
	if i := bitvec.ParseRow(row, line); i >= 0 {
		return fmt.Errorf("bad bit %q at position %d", line[i], i)
	}
	return nil
}

// parseBits decodes one line of want characters into a []bool.
func parseBits(line []byte, want int) ([]bool, error) {
	row := make([]bitvec.Word, bitvec.RowWords(want))
	if err := parseRow(row, line, want); err != nil {
		return nil, err
	}
	out := make([]bool, want)
	bitvec.UnpackBools(out, row)
	return out, nil
}

// formatBits renders bits as one '0'/'1' line (without its newline).
func formatBits(bits []bool) string {
	row := make([]bitvec.Word, bitvec.RowWords(len(bits)))
	bitvec.PackBools(row, bits)
	buf := make([]byte, len(bits))
	bitvec.FormatRow(buf, row)
	return string(buf)
}

// DialConfig bounds a client session's patience. The zero value preserves
// the historical behaviour: no connect timeout and no I/O deadlines. A reply
// line over 1 MiB fails the session either way.
type DialConfig struct {
	// ConnectTimeout bounds the TCP dial (0 = wait forever).
	ConnectTimeout time.Duration
	// IOTimeout is armed as a fresh deadline before every socket read and
	// every socket write, under the client's line buffers: a server that
	// stops answering mid-session surfaces as a timeout error instead of
	// silently eating the learner's time budget (0 = no deadlines).
	IOTimeout time.Duration
}

// Client is an Oracle (and BatchOracle) backed by a remote ioserve server.
// It is safe for sequential use only (the learner is single-threaded per the
// contest rules). Transport failures panic with *oracle.Failure from the
// Oracle-interface methods and return errors from the TryEval family; for
// automatic retry and reconnection use ResilientClient.
type Client struct {
	conn     net.Conn
	r        *bufio.Scanner
	w        *bufio.Writer
	ins      []string
	outs     []string
	proto    int   // protocol level: 2, or what UpgradeTo granted
	queryErr error // first transport error; the session is dead once set
	closed   bool
}

// Dial connects to a server and reads the port-name greeting, with no
// deadlines (the historical default). The session starts at level 2, so
// queries and batches need no negotiation.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialConfig{})
}

// DialWith connects with explicit timeout bounds. Every error path closes
// the connection: a failed negotiation never leaks a file descriptor.
func DialWith(addr string, cfg DialConfig) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, cfg.ConnectTimeout)
	if err != nil {
		return nil, transportErr(err)
	}
	return NewClientConn(conn, cfg)
}

// NewClientConn builds a client over an already-established connection —
// an in-memory pipe, a proxied stream, anything net.Conn-shaped — and
// performs the greeting handshake on it. Error paths close conn.
func NewClientConn(conn net.Conn, cfg DialConfig) (*Client, error) {
	var stream io.ReadWriter = conn
	if cfg.IOTimeout > 0 {
		// Deadlines are armed per socket read and write, not per line: a
		// whole reply frame usually arrives in a few reads.
		stream = &deadlineConn{Conn: conn, timeout: cfg.IOTimeout}
	}
	c := &Client{
		conn:  conn,
		r:     bufio.NewScanner(stream),
		w:     bufio.NewWriter(stream),
		proto: 2,
	}
	c.r.Buffer(make([]byte, 1<<16), maxLine)
	ins, err := c.readHeader("inputs")
	if err != nil {
		conn.Close()
		return nil, err
	}
	outs, err := c.readHeader("outputs")
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.ins, c.outs = ins, outs
	return c, nil
}

func (c *Client) readHeader(keyword string) ([]string, error) {
	line, err := c.readLineErr()
	if err != nil {
		return nil, fmt.Errorf("ioserve: reading %s greeting: %w", keyword, err)
	}
	fields := strings.Fields(line)
	if len(fields) < 1 || fields[0] != keyword {
		return nil, transportErr(fmt.Errorf("ioserve: expected %q line, got %q", keyword, line))
	}
	return fields[1:], nil
}

// UpgradeTo negotiates protocol level v (>= 2) and returns the level the
// session ends up on: the server grants the lower of the requested and
// served levels, and a server that answers the probe with an "error:" line
// leaves the session where it was. Safe to call multiple times; a session
// never downgrades. Service-level clients (internal/serve) request 3 to
// unlock the extension verbs.
func (c *Client) UpgradeTo(v int) (int, error) {
	if v < 2 {
		panic(fmt.Sprintf("ioserve: UpgradeTo(%d): levels below 2 are not negotiable", v))
	}
	if c.proto >= v {
		return c.proto, nil
	}
	if err := c.usable(); err != nil {
		return 0, err
	}
	if err := c.send(fmt.Sprintf("proto %d\n", v)); err != nil {
		return 0, err
	}
	line, err := c.readLineErr()
	if err != nil {
		return 0, err
	}
	switch {
	case strings.HasPrefix(line, "ok "):
		n, err := strconv.Atoi(strings.TrimPrefix(line, "ok "))
		if err != nil || n < 2 || n > v {
			return 0, c.fail(transportErr(fmt.Errorf("ioserve: bad upgrade grant %q", line)))
		}
		if n > c.proto {
			c.proto = n
		}
		return c.proto, nil
	case strings.HasPrefix(line, "error:"):
		return c.proto, nil // old server: stay where we are
	default:
		return 0, c.fail(transportErr(fmt.Errorf("ioserve: unexpected upgrade reply %q", line)))
	}
}

// Exchange sends one raw protocol line and returns the server's single-line
// reply. It is the primitive service-level clients (internal/serve) build
// their verbs on; the core query paths never go through it. Transport
// failures poison the session and come back as errors (tagged transient
// when a reconnect may help).
func (c *Client) Exchange(cmd string) (string, error) {
	if err := c.usable(); err != nil {
		return "", err
	}
	if strings.ContainsAny(cmd, "\n\r") {
		panic(fmt.Sprintf("ioserve: Exchange command contains a line break: %q", cmd))
	}
	if err := c.send(cmd + "\n"); err != nil {
		return "", err
	}
	return c.readLineErr()
}

// ReadLine reads one additional reply line, for verbs whose replies span
// multiple lines (a result frame after its header).
func (c *Client) ReadLine() (string, error) {
	if err := c.usable(); err != nil {
		return "", err
	}
	return c.readLineErr()
}

// Proto returns the session's protocol level: 2, or the level UpgradeTo
// granted.
func (c *Client) Proto() int { return c.proto }

// Close ends the session politely and reports any error from the farewell
// write or the close itself. It is idempotent: second and later calls
// return nil without touching the connection.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var werr error
	if c.queryErr == nil {
		// Only be polite on a healthy session; on a poisoned one the
		// stream state is unknown and "quit" would just be noise.
		if _, err := c.w.WriteString("quit\n"); err != nil {
			werr = err
		} else {
			werr = c.w.Flush()
		}
	}
	cerr := c.conn.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func (c *Client) NumInputs() int        { return len(c.ins) }
func (c *Client) NumOutputs() int       { return len(c.outs) }
func (c *Client) InputNames() []string  { return append([]string(nil), c.ins...) }
func (c *Client) OutputNames() []string { return append([]string(nil), c.outs...) }

// usable reports why the session cannot issue queries, if it cannot.
func (c *Client) usable() error {
	if c.closed {
		return ErrClientClosed
	}
	return c.queryErr
}

// send writes and flushes one command, poisoning the session on failure.
func (c *Client) send(s string) error {
	if _, err := c.w.WriteString(s); err != nil {
		return c.fail(transportErr(err))
	}
	if err := c.w.Flush(); err != nil {
		return c.fail(transportErr(err))
	}
	return nil
}

// readLine reads one reply line, trimmed; the bytes are valid until the
// next read. Transport failures poison the session and come back tagged
// transient (a fresh connection may succeed where this one died).
func (c *Client) readLine() ([]byte, error) {
	if !c.r.Scan() {
		err := c.r.Err()
		if err == nil {
			err = fmt.Errorf("ioserve: server closed connection")
		}
		return nil, c.fail(transportErr(err))
	}
	return bytes.TrimSpace(c.r.Bytes()), nil
}

// readLineErr is readLine as a string.
func (c *Client) readLineErr() (string, error) {
	line, err := c.readLine()
	return string(line), err
}

// Eval issues one query. Transport failures panic with *oracle.Failure: the
// bare client has no recovery story for a dead black box, matching the
// contest setting where a dead iogen ends the run. Use ResilientClient (or
// TryEval) for a learner that survives them.
func (c *Client) Eval(assignment []bool) []bool {
	out, err := c.evalErr(assignment)
	if err != nil {
		panic(oracle.NewFailure(err))
	}
	return out
}

// TryEval issues one query, returning transport failures as error values
// (oracle.Fallible).
func (c *Client) TryEval(assignment []bool) ([]bool, error) {
	return c.evalErr(assignment)
}

func (c *Client) evalErr(assignment []bool) ([]bool, error) {
	if err := c.usable(); err != nil {
		return nil, err
	}
	if len(assignment) != len(c.ins) {
		panic(fmt.Sprintf("ioserve: %d bits for %d inputs", len(assignment), len(c.ins)))
	}
	if err := c.send(formatBits(assignment) + "\n"); err != nil {
		return nil, err
	}
	return c.readReplyErr()
}

// readReplyErr parses one <obits> reply line, classifying error replies per
// the wire failure model.
func (c *Client) readReplyErr() ([]bool, error) {
	row := make([]bitvec.Word, bitvec.RowWords(len(c.outs)))
	if err := c.readReply(row); err != nil {
		return nil, err
	}
	out := make([]bool, len(c.outs))
	bitvec.UnpackBools(out, row)
	return out, nil
}

// readReply decodes one <obits> reply line into row (RowWords(outputs)
// words, unspecified on error), classifying error replies per the wire
// failure model.
func (c *Client) readReply(row []bitvec.Word) error {
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if bytes.HasPrefix(line, []byte("error:")) {
		return c.errorReply(string(line), "query")
	}
	if err := parseRow(row, line, len(c.outs)); err != nil {
		// A reply that does not parse means the stream is desynchronized
		// (e.g. a corrupted line): unusable here, but a reconnect heals it.
		return c.fail(transportErr(fmt.Errorf("ioserve: bad reply: %w", err)))
	}
	return nil
}

// errorReply classifies an "error:" reply line to the named request
// ("query" or "batch").
func (c *Client) errorReply(line, request string) error {
	switch {
	case strings.HasPrefix(line, "error: transient:"):
		// The server-side black box hiccuped but the stream is intact:
		// retryable in place, session not poisoned.
		return &wireTransientError{msg: strings.TrimSpace(strings.TrimPrefix(line, "error:"))}
	case strings.HasPrefix(line, "error: fatal:"):
		return c.fail(fmt.Errorf("ioserve: black box is dead: %s", strings.TrimSpace(strings.TrimPrefix(line, "error: fatal:"))))
	default:
		// A well-formed request was rejected: that is a client-side bug,
		// not a fault worth retrying.
		return c.fail(fmt.Errorf("ioserve: server rejected %s: %s", request, line))
	}
}

// EvalBatch sends the whole batch across the wire in batch frames, one round
// trip per MaxFrame queries; the bits returned are identical to n scalar
// Evals. Transport failures panic with *oracle.Failure.
func (c *Client) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	out, err := c.evalBatchErr(patterns, n)
	if err != nil {
		panic(oracle.NewFailure(err))
	}
	return out
}

// TryEvalBatch is EvalBatch with transport failures as error values
// (oracle.FallibleBatch). An error rejects the whole batch.
func (c *Client) TryEvalBatch(patterns []bitvec.Word, n int) ([]bitvec.Word, error) {
	return c.evalBatchErr(patterns, n)
}

func (c *Client) evalBatchErr(patterns []bitvec.Word, n int) ([]bitvec.Word, error) {
	out := make([]bitvec.Word, len(c.outs)*oracle.Words(n))
	if _, err := c.evalBatchResume(patterns, n, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// evalBatchResume is the resumable core of evalBatchErr, exposed to the
// resilient layer so a session that dies mid-batch doesn't forfeit the
// answers it already delivered. It issues the queries for patterns
// [start, n) and scatters replies into out, the caller-owned result lanes
// (len(c.outs)*Words(n) words). The return value is the count of leading
// patterns whose replies have been fully received: on error the caller
// retries with start set to that count, re-issuing only the unanswered
// tail — queries are pure, so a kept answer can never disagree with a
// re-issued one.
func (c *Client) evalBatchResume(patterns []bitvec.Word, n, start int, out []bitvec.Word) (int, error) {
	if err := c.usable(); err != nil {
		return start, err
	}
	nIn, nOut := len(c.ins), len(c.outs)
	w := oracle.Words(n)
	if want := nIn * w; len(patterns) != want {
		panic(fmt.Sprintf("ioserve: EvalBatch got %d lane words, want %d", len(patterns), want))
	}
	if want := nOut * w; len(out) != want {
		panic(fmt.Sprintf("ioserve: EvalBatch got %d result words, want %d", len(out), want))
	}
	// Query lines are formatted from the input rows of one 64-pattern
	// block at a time; replies bank as rows and reach out one block at a
	// time, so out only ever holds answers to patterns below done.
	kw := bitvec.RowWords(nIn)
	in := make([]bitvec.Word, 64*kw)
	inBlock := -1
	replies := replyRows{out: out, w: w, nOut: nOut, block: -1,
		rows: make([]bitvec.Word, 64*bitvec.RowWords(nOut))}
	defer replies.flush()
	line := make([]byte, nIn+1)
	line[nIn] = '\n'
	done := start
	for base := start; base < n; base += MaxFrame {
		k := min(n-base, MaxFrame)
		fmt.Fprintf(c.w, "batch %d\n", k)
		for pat := base; pat < base+k; pat++ {
			if b := pat >> 6; b != inBlock {
				bitvec.LanesToRows(in, patterns, w, nIn, b)
				inBlock = b
			}
			p := pat & 63
			bitvec.FormatRow(line[:nIn], in[p*kw:(p+1)*kw])
			if _, err := c.w.Write(line); err != nil {
				return done, c.fail(transportErr(err))
			}
		}
		if err := c.w.Flush(); err != nil {
			return done, c.fail(transportErr(err))
		}
		header, err := c.readLineErr()
		if err != nil {
			return done, err
		}
		switch {
		case strings.HasPrefix(header, "error:"):
			return done, c.errorReply(header, "batch")
		case header != fmt.Sprintf("batch %d", k):
			return done, c.fail(transportErr(fmt.Errorf("ioserve: bad batch reply header %q", header)))
		}
		for q := 0; q < k; q++ {
			row := replies.row(base + q)
			if err := c.readReply(row); err != nil {
				clear(row)
				return done, err
			}
			done = base + q + 1
		}
	}
	return done, nil
}

// replyRows banks the reply rows of one 64-pattern block and ORs them into
// the result lanes with one transpose when the exchange moves past the
// block or ends. Rows of patterns not answered stay zero.
type replyRows struct {
	out     []bitvec.Word
	w, nOut int
	block   int // the block the rows belong to, -1 when none is banked
	rows    []bitvec.Word
}

// row returns the zeroed row for pattern pat's reply.
func (r *replyRows) row(pat int) []bitvec.Word {
	if b := pat >> 6; b != r.block {
		r.flush()
		r.block = b
	}
	ow := len(r.rows) / 64
	p := pat & 63
	return r.rows[p*ow : (p+1)*ow]
}

// flush ORs the banked rows into their block of the result lanes and
// clears them.
func (r *replyRows) flush() {
	if r.block >= 0 {
		bitvec.RowsToLanes(r.out, r.w, r.nOut, r.block, r.rows)
		clear(r.rows)
		r.block = -1
	}
}

// fail poisons the session and returns the error for the caller to
// propagate.
func (c *Client) fail(err error) error {
	if c.queryErr == nil {
		c.queryErr = err
	}
	return err
}

var (
	_ oracle.Oracle        = (*Client)(nil)
	_ oracle.BatchOracle   = (*Client)(nil)
	_ oracle.FallibleBatch = (*Client)(nil)
)
