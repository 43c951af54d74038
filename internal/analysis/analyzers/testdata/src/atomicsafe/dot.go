package atomicsafe

import . "sync/atomic"

// A dot import hides the package name, not the function.
func dotBump(p *int64) {
	AddInt64(p, 1) // want "sync/atomic.AddInt64"
}
