package locksafe

import "sync"

// defer covers every exit — returns and panics alike.
func balanced(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n < 0 {
		panic("negative count")
	}
	return c.n
}

// Explicit unlock on both paths is also fine.
func bothPaths(c *counter) int {
	c.mu.Lock()
	if c.n > 0 {
		n := c.n
		c.mu.Unlock()
		return n
	}
	c.mu.Unlock()
	return 0
}

// TryLock tracked branch-sensitively: the lock is held only on the
// success edge, and released there.
func tryBalanced(mu *sync.Mutex) {
	if mu.TryLock() {
		defer mu.Unlock()
	}
}

func tryVarBalanced(mu *sync.Mutex) bool {
	ok := mu.TryLock()
	if ok {
		mu.Unlock()
		return true
	}
	return false
}
