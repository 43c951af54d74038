// The locksafe fixture: locks leaked on returns and panics, and conditional
// TryLock acquisitions. Lock values copied by value are go vet's copylocks.
package locksafe

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

// The early return leaks the lock.
func leakOnReturn(c *counter) int {
	c.mu.Lock() // want "may still be held at a return"
	if c.n > 0 {
		return c.n
	}
	c.mu.Unlock()
	return 0
}

// The panic path unwinds with the lock held; only a defer covers it.
func leakOnPanic(c *counter) {
	c.mu.Lock() // want "may still be held at a panic"
	if c.n < 0 {
		panic("negative count")
	}
	c.mu.Unlock()
}

// A successful TryLock is an acquisition like any other.
func tryLeak(mu *sync.Mutex) {
	if mu.TryLock() { // want "may still be held"
		return
	}
}

// The assigned form leaks the same way.
func tryVarLeak(mu *sync.Mutex) bool {
	ok := mu.TryLock() // want "may still be held"
	if ok {
		return true
	}
	return false
}
