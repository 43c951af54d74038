// The randtaint fixture: draws from the process-global generator, and every
// way a rand source can be seeded from the clock or from that generator.
package randtaint

import (
	"math/rand"
	"time"
)

func use(rand.Source) {}

// Direct: the classic anti-pattern, inline; two sinks, one report.
func direct() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "nondeterministic"
}

// Through a local variable.
func viaVar() rand.Source {
	seed := time.Now().UnixNano()
	return rand.NewSource(seed) // want "nondeterministic"
}

// Through a helper's return value (interprocedural summary).
func clockSeed() int64 { return time.Now().UnixNano() }

func viaHelper() rand.Source {
	return rand.NewSource(clockSeed()) // want "nondeterministic"
}

// Through a struct field.
type cfg struct{ seed int64 }

func viaField() {
	var c cfg
	c.seed = time.Now().UnixNano()
	use(rand.NewSource(c.seed)) // want "nondeterministic"
}

// Through a closure capture.
func viaClosure() {
	t := time.Now().UnixNano()
	mk := func() rand.Source {
		return rand.NewSource(t) // want "nondeterministic"
	}
	use(mk())
}

// From the process-global generator: just as nondeterministic across runs.
func globalDraw() rand.Source {
	n := rand.Int63()        // want "draws from the process-global source"
	return rand.NewSource(n) // want "nondeterministic"
}

// Package-level draws, called or passed as a value.
func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { // want "draws from the process-global source"
		xs[i], xs[j] = xs[j], xs[i]
	})
	_ = rand.Intn(len(xs)) // want "draws from the process-global source"
	pick := rand.Intn      // want "draws from the process-global source"
	_ = pick(len(xs))
}

// srcOf builds a source from whatever time it is handed.
func srcOf(t time.Time) rand.Source { return rand.NewSource(t.UnixNano()) }

// rand.New is a seed sink too: the clock reaches it through srcOf's result,
// inline or through a variable.
func viaSourceHelper() *rand.Rand {
	return rand.New(srcOf(time.Now())) // want "seeded from the clock"
}

func viaSourceHelperVar() *rand.Rand {
	now := time.Now()
	return rand.New(srcOf(now)) // want "nondeterministic"
}

// An op= assignment mixes into the target's taint; it does not replace it.
func viaOpAssign() *rand.Rand {
	s := time.Now().UnixNano()
	s ^= 5
	return rand.New(rand.NewSource(s)) // want "nondeterministic"
}
