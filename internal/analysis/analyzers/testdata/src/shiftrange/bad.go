// The shiftrange fixture: hot-path shifts outside the syntactic rule, and
// indexes the compiler keeps a bounds check for (built as internal/bitvec
// under the compiler check, see TestShiftRangeIndexCompilerCheck).
package bitvec

// An unmasked shift amount: k may be 64 or negative.
//
//logicreg:hotpath
func maskBit(k int) uint64 {
	return 1 << uint(k) // want "not provably < 64"
}

// Compound shifts are checked too.
//
//logicreg:hotpath
func shrVar(x uint64, n int) uint64 {
	x >>= uint(n) // want "not provably < 64"
	return x
}

// The conversion pitfall: k < 64 alone does not bound uint(k), because a
// negative k wraps to a huge unsigned value.
//
//logicreg:hotpath
func wrapNegative(k int) uint64 {
	if k < 64 {
		return 1 << uint(k) // want "not provably < 64"
	}
	return 0
}

// An unguarded index keeps a runtime bounds check on the hot path.
//
//logicreg:hotpath
func loadWord(words []uint64, i int) uint64 {
	return words[i] // the compiler keeps a bounds check
}

// The guard is one short: i == len(words) falls through.
//
//logicreg:hotpath
func offByOne(words []uint64, i int) uint64 {
	if i >= 0 && i <= len(words) {
		return words[i] // the compiler keeps a bounds check
	}
	return 0
}

// Not annotated: cold code is not held to the proof.
func coldShift(k int) uint64 {
	return 1 << uint(k)
}

// A two-sided guard bounds the amount, but the rule is syntactic: only a
// constant or a mask passes.
//
//logicreg:hotpath
func shrGuarded(x uint64, n int) uint64 {
	if n >= 0 && n < 64 {
		x >>= n // want "not provably < 64"
	}
	return x
}
