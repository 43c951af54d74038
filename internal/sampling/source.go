package sampling

import (
	"math/bits"
	"math/rand"
)

// RNG is what the sweeps draw from: one 64-bit word per call. *rand.Rand
// satisfies it and is drawn from word by word; a *Source is also read in
// bulk, with the same words in the same order.
type RNG interface {
	Uint64() uint64
}

// The lags of math/rand's additive lagged Fibonacci generator:
// x[n] = x[n-ringLen] + x[n-ringTap] (mod 2^64).
const (
	ringLen = 607
	ringTap = 273
)

// Source is math/rand's generator with its state laid out for bulk reads.
// It implements rand.Source64 with exactly the stream of
// rand.NewSource(seed), so rand.New(s) gives every *rand.Rand method over
// the same draws. The ring holds the block of ringLen outputs being read.
// The first block is the first ringLen outputs of rand.NewSource(seed),
// which spares copying the standard library's seeding table; each later
// block follows from the one before by the recurrence, computed in place.
//
// A Source is not safe for concurrent use, and its zero value must be
// seeded before use.
type Source struct {
	ring [ringLen]uint64
	pos  int // next unread ring index; ringLen means the block is used up
	// seeder produces the first block; it is kept so that re-seeding
	// allocates nothing.
	seeder rand.Source64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at that of rand.NewSource(seed).
func (s *Source) Seed(seed int64) {
	if s.seeder == nil {
		s.seeder = rand.NewSource(seed).(rand.Source64)
	} else {
		s.seeder.Seed(seed)
	}
	for i := range s.ring {
		s.ring[i] = s.seeder.Uint64()
	}
	s.pos = 0
}

// Uint64 returns the next word of the stream.
func (s *Source) Uint64() uint64 {
	if s.pos >= ringLen {
		s.refill()
	}
	x := s.ring[s.pos]
	s.pos++
	return x
}

// Int63 returns the next word with its top bit cleared, as math/rand's
// source does.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// refill replaces the block x[n..n+606] with x[n+607..n+1213]. Word i of
// the new block is x[n+i] + x[n+334+i]: below ringTap the second term is
// still in the old block, from ringTap on it is a word already written.
func (s *Source) refill() {
	r := &s.ring
	for i := 0; i < ringTap; i++ {
		r[i] += r[i+ringLen-ringTap]
	}
	for i := ringTap; i < ringLen; i++ {
		r[i] += r[i-ringTap]
	}
	s.pos = 0
}

// fillBiased sets dst[i] = BiasedWord(s, p) for every i in order, reading
// each word's draws straight from the ring; a word whose draws straddle a
// refill takes the per-draw path. It leaves s where those calls would.
func (s *Source) fillBiased(dst []uint64, p float64) {
	q, c, constant := quantize(p)
	if constant {
		for i := range dst {
			dst[i] = c
		}
		return
	}
	// k draws per word: the first is the word at the lowest set digit of
	// q, the others are ORed (digit 1, mask all ones) or ANDed (digit 0,
	// mask zero) in, as in BiasedWord.
	lo := bits.TrailingZeros32(q)
	k := 16 - lo
	var maskArr [15]uint64
	masks := maskArr[:k-1]
	for j := range masks {
		masks[j] = -uint64(q >> uint(lo+1+j) & 1)
	}
	for len(dst) > 0 {
		if s.pos >= ringLen {
			s.refill()
		}
		fit := min((ringLen-s.pos)/k, len(dst))
		if fit == 0 {
			dst[0] = BiasedWord(s, p)
			dst = dst[1:]
			continue
		}
		combineDraws(dst[:fit], s.ring[s.pos:s.pos+fit*k], masks)
		s.pos += fit * k
		dst = dst[fit:]
	}
}

// combineDraws sets dst[i] from the k = len(masks)+1 draws at
// draws[i*k:]: the first draw, then each later one ORed in where its mask
// is all ones and ANDed in where it is zero.
func combineDraws(dst, draws, masks []uint64) {
	k := len(masks) + 1
	for i := range dst {
		w := draws[i*k]
		r := draws[i*k+1 : i*k+k]
		r = r[:len(masks)] // lets the compiler drop r[j]'s bounds check
		for j, m := range masks {
			x := r[j]
			w = (w | x&m) & (x | m)
		}
		dst[i] = w
	}
}

// fillBiased sets dst[i] = BiasedWord(rng, p) for every i in order, in
// bulk when rng is a *Source.
func fillBiased(rng RNG, dst []uint64, p float64) {
	if s, ok := rng.(*Source); ok {
		s.fillBiased(dst, p)
		return
	}
	for i := range dst {
		dst[i] = BiasedWord(rng, p)
	}
}
