package randtaint

import (
	"math/rand"
	"time"
)

// The plumbed seed is the one sanctioned entropy root.
func fromSeed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Values derived from the seed stay clean.
func derived(seed int64) rand.Source {
	return rand.NewSource(seed ^ 0x9e3779b9)
}

// A strong update un-taints: the clock value is overwritten before use.
func overwritten(seed int64) rand.Source {
	s := clockSeed()
	s = seed
	return rand.NewSource(s)
}

// A helper that merely transforms its input stays clean for clean inputs.
func mix(a, b int64) int64 { return a*31 + b }

func viaCleanHelper(seed int64) rand.Source {
	return rand.NewSource(mix(seed, 7))
}

// Draws come from a generator built from the plumbed seed, never from the
// package-level functions.
func goodShuffle(seed int64, xs []int) {
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(xs), func(i, j int) {
		xs[i], xs[j] = xs[j], xs[i]
	})
	_ = r.Intn(len(xs))
}

// A time derived from the seed is not the clock.
func seededTime(seed int64) *rand.Rand {
	return rand.New(srcOf(time.Unix(seed, 0)))
}
