package serve

// Protocol v3: the service verbs, layered on the ioserve wire as an
// Extension. Everything below rides the line discipline v1/v2 established:
// one ASCII line per request, one line per reply unless the reply announces
// a line count. Unknown lines fall through to the core protocol, so a v3
// connection can still issue plain bit-string queries (they hit the bound
// session's oracle once a session is attached).
//
//	session new <tenant>   -> ok session <id>
//	session attach <id>    -> ok session <id>
//	session close          -> ok session closed
//	learn <seed>           -> ok job <id>
//	job <id>               -> job <id> <state> <phase> <done> <total> <queries> <resumes>
//	cancel <id>            -> ok cancel <id>
//	resume <id>            -> ok job <id>
//	result <id>            -> result <id> lines <k>   followed by k netlist lines
//	stats                  -> stats <json>            single-line snapshot
//
// Admission failures (queue full, quotas, draining) reply
// "error: transient: ..." so a ResilientClient-style caller backs off and
// retries; malformed requests and unknown IDs reply plain "error: ..." and
// keep the connection open.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"logicregression/internal/circuit"
	"logicregression/internal/ioserve"
)

// WireProto is the protocol version that unlocks the service verbs.
const WireProto = 3

// Wire adapts a Service to the ioserve.Extension hook. Install it on a
// server with srv.Ext = svc.Wire().
type Wire struct {
	svc *Service
}

// Wire returns the service's protocol extension.
func (s *Service) Wire() *Wire { return &Wire{svc: s} }

// MaxProto implements ioserve.Extension.
func (w *Wire) MaxProto() int { return WireProto }

// boundSession returns the session a connection has attached, if any.
func boundSession(c *ioserve.Conn) *Session {
	sess, _ := c.State.(*Session)
	return sess
}

// transientErr reports whether an admission error should be marked
// transient on the wire.
func transientErr(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrJobQuota) ||
		errors.Is(err, ErrSessionQuota) || errors.Is(err, ErrDraining)
}

// replyErr renders an error with the right severity prefix.
func replyErr(c *ioserve.Conn, err error) bool {
	if transientErr(err) {
		return c.Reply(fmt.Sprintf("error: transient: %v", err))
	}
	return c.Reply(fmt.Sprintf("error: %v", err))
}

// Handle implements ioserve.Extension. It consumes the service verbs and
// lets every other line fall through to the core protocol.
func (w *Wire) Handle(c *ioserve.Conn, line string) (handled, keep bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false, true
	}
	switch fields[0] {
	case "session":
		return true, w.handleSession(c, fields[1:])
	case "learn":
		return true, w.handleLearn(c, fields[1:])
	case "job":
		return true, w.handleJob(c, fields[1:])
	case "cancel":
		return true, w.handleCancel(c, fields[1:])
	case "resume":
		return true, w.handleResume(c, fields[1:])
	case "result":
		return true, w.handleResult(c, fields[1:])
	case "stats":
		return true, w.handleStats(c)
	}
	return false, true
}

// bind attaches a session to the connection, rerouting its query path
// through the session oracle. The session outlives the connection: a
// client that redials may attach to it again.
func bind(c *ioserve.Conn, sess *Session) {
	c.State = sess
	c.BindOracle(sess.Oracle())
}

func (w *Wire) handleSession(c *ioserve.Conn, args []string) bool {
	if len(args) == 0 {
		return c.Reply("error: session verb requires new|attach|close")
	}
	switch args[0] {
	case "new":
		if len(args) != 2 {
			return c.Reply("error: usage: session new <tenant>")
		}
		sess, err := w.svc.NewSession(args[1])
		if err != nil {
			return replyErr(c, err)
		}
		bind(c, sess)
		return c.Reply("ok session " + sess.ID)
	case "attach":
		if len(args) != 2 {
			return c.Reply("error: usage: session attach <id>")
		}
		sess, ok := w.svc.Session(args[1])
		if !ok {
			return c.Reply(fmt.Sprintf("error: unknown session %q", args[1]))
		}
		bind(c, sess)
		return c.Reply("ok session " + sess.ID)
	case "close":
		sess := boundSession(c)
		if sess == nil {
			return c.Reply("error: no session bound")
		}
		c.State = nil
		if err := w.svc.CloseSession(sess.ID); err != nil {
			return replyErr(c, err)
		}
		return c.Reply("ok session closed")
	}
	return c.Reply(fmt.Sprintf("error: unknown session subcommand %q", args[0]))
}

func (w *Wire) handleLearn(c *ioserve.Conn, args []string) bool {
	if len(args) != 1 {
		return c.Reply("error: usage: learn <seed>")
	}
	seed, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return c.Reply(fmt.Sprintf("error: bad seed %q", args[0]))
	}
	sess := boundSession(c)
	if sess == nil {
		return c.Reply("error: no session bound; session new <tenant> first")
	}
	j, err := w.svc.Submit(sess, seed)
	if err != nil {
		return replyErr(c, err)
	}
	return c.Reply("ok job " + j.ID)
}

func (w *Wire) handleJob(c *ioserve.Conn, args []string) bool {
	if len(args) != 1 {
		return c.Reply("error: usage: job <id>")
	}
	j, ok := w.svc.Job(args[0])
	if !ok {
		return c.Reply(fmt.Sprintf("error: unknown job %q", args[0]))
	}
	st := j.Status()
	phase := string(st.Phase)
	if phase == "" {
		phase = "pending"
	}
	return c.Reply(fmt.Sprintf("job %s %s %s %d %d %d %d",
		st.ID, st.State, phase, st.OutputsDone, st.TotalOut, st.Queries, st.Resumes))
}

func (w *Wire) handleCancel(c *ioserve.Conn, args []string) bool {
	if len(args) != 1 {
		return c.Reply("error: usage: cancel <id>")
	}
	if err := w.svc.Cancel(args[0]); err != nil {
		return replyErr(c, err)
	}
	return c.Reply("ok cancel " + args[0])
}

func (w *Wire) handleResume(c *ioserve.Conn, args []string) bool {
	if len(args) != 1 {
		return c.Reply("error: usage: resume <id>")
	}
	j, err := w.svc.Resume(args[0])
	if err != nil {
		return replyErr(c, err)
	}
	return c.Reply("ok job " + j.ID)
}

func (w *Wire) handleResult(c *ioserve.Conn, args []string) bool {
	if len(args) != 1 {
		return c.Reply("error: usage: result <id>")
	}
	j, ok := w.svc.Job(args[0])
	if !ok {
		return c.Reply(fmt.Sprintf("error: unknown job %q", args[0]))
	}
	res := j.Result()
	if res == nil {
		return c.Reply(fmt.Sprintf("error: job %s is %s; result available once done", j.ID, j.State()))
	}
	var sb strings.Builder
	if err := circuit.WriteNetlist(&sb, res.Circuit); err != nil {
		return c.Reply(fmt.Sprintf("error: netlist: %v", err))
	}
	body := strings.TrimRight(sb.String(), "\n")
	var lines []string
	if body != "" {
		lines = strings.Split(body, "\n")
	}
	out := make([]string, 0, len(lines)+1)
	out = append(out, fmt.Sprintf("result %s lines %d", j.ID, len(lines)))
	out = append(out, lines...)
	return c.ReplyLines(out)
}

func (w *Wire) handleStats(c *ioserve.Conn) bool {
	snap := w.svc.reg.Snapshot()
	blob, err := marshalSnapshot(snap)
	if err != nil {
		return c.Reply(fmt.Sprintf("error: stats: %v", err))
	}
	return c.Reply("stats " + blob)
}
