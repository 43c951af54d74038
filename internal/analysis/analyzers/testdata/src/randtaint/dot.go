package randtaint

import (
	. "math/rand"
	. "time"
)

// A dot import hides the package name, not the draw or the clock.
func dotDraw() int {
	return Intn(3) // want "draws from the process-global source"
}

func dotClock() Source {
	return NewSource(Now().UnixNano()) // want "seeded from the clock"
}
