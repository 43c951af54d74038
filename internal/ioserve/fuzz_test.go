package ioserve

import (
	"bytes"
	"io"
	"testing"

	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
)

// stream drives the wire protocol without a socket.
type stream struct {
	io.Reader
	io.Writer
}

// FuzzServeStream throws arbitrary client bytes at the protocol loop —
// especially the batch frame parser, whose declared batch sizes and frame
// bodies come straight off the wire. The server must never panic and never
// allocate lanes from an untrusted length.
func FuzzServeStream(f *testing.F) {
	for _, seed := range []string{
		"01\n",
		"proto 2\nbatch 2\n01\n10\nquit\n",
		"batch 1\n11\n",
		"batch 0\n",
		"batch -1\n01\n",
		"batch 99999999999999999999\n",
		"batch x\n",
		"batch 3\n01\n", // truncated frame
		"proto 1\n",
		"proto two\n",
		"proto 2\n0101010\n", // wrong arity after upgrade
		"bogus command\n",
		"\n\n\n",
		"batch 2\n01\nxx\nquit\n", // malformed line inside a frame
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := circuit.New()
		a := c.AddPI("a")
		b := c.AddPI("b")
		c.AddPO("x", c.Xor(a, b))
		c.AddPO("y", c.And(a, b))
		NewServer(oracle.FromCircuit(c)).serveStream(stream{bytes.NewReader(data), io.Discard})
	})
}
