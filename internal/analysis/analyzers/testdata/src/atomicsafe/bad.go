// The atomicsafe fixture: every use of a package-level sync/atomic
// function, called directly, through a helper, or as a value.
package atomicsafe

import "sync/atomic"

type counter struct {
	hits  int64
	total int64
}

// hits is atomic here, yet nothing stops the plain write in reset.
func (c *counter) incr() {
	atomic.AddInt64(&c.hits, 1) // want "sync/atomic.AddInt64"
}

func (c *counter) reset() {
	c.hits = 0
}

// A helper hides which fields are atomic from their readers.
func bump(p *int64) {
	atomic.AddInt64(p, 1) // want "sync/atomic.AddInt64"
}

func (c *counter) addTotal() {
	bump(&c.total)
}

// Under GOARCH=386 layout count sits at offset 4: the address-taking API
// faults on misaligned 64-bit words on 32-bit platforms.
type gauge struct {
	ready int32
	count int64
}

func (g *gauge) inc() {
	atomic.AddInt64(&g.count, 1) // want "sync/atomic.AddInt64"
}

func (g *gauge) load() int64 {
	return atomic.LoadInt64(&g.count) // want "sync/atomic.LoadInt64"
}

// A reference passed as a value is a use too.
var add = atomic.AddInt64 // want "sync/atomic.AddInt64"
