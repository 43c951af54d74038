// The repaired forms: the typed atomics. This file must stay silent.
package atomicsafe

import "sync/atomic"

// Every access goes through the type; a plain one does not compile.
type fixedCounter struct {
	hits  atomic.Int64
	total atomic.Int64
}

func (c *fixedCounter) incr()           { c.hits.Add(1) }
func (c *fixedCounter) reset()          { c.hits.Store(0) }
func (c *fixedCounter) snapshot() int64 { return c.hits.Load() + c.total.Load() }

// The 64-bit typed atomics align themselves, so the int32 in front is not
// a layout hazard.
type typedGauge struct {
	ready int32
	count atomic.Int64
}

func (g *typedGauge) inc() { g.count.Add(1) }

// Flags and pointers have typed forms too.
type state struct {
	closed atomic.Bool
	cur    atomic.Pointer[fixedCounter]
}

func (s *state) swap(c *fixedCounter) *fixedCounter {
	if s.closed.Load() {
		return nil
	}
	return s.cur.Swap(c)
}
