// The repaired shiftrange fixture: every shift amount is constant or masked,
// and every index is one the compiler proves, or a reviewed allowance.
package bitvec

// Masking the amount is the canonical fix: uint(k)&63 is in [0, 63].
//
//logicreg:hotpath
func maskBitFixed(k int) uint64 {
	return 1 << (uint(k) & 63)
}

// A compound shift is held to the same rule: a constant amount, or one
// masked below the width.
//
//logicreg:hotpath
func shrMasked(x uint64, n int) uint64 {
	x >>= 1
	x >>= uint(n) & 63
	return x
}

// The panic-guard idiom: the fall-through is provably in range.
//
//logicreg:hotpath
func loadGuarded(words []uint64, i int) uint64 {
	if i < 0 || i >= len(words) {
		return 0
	}
	return words[i]
}

// A range key over the same slice needs no guard.
//
//logicreg:hotpath
func sumWords(words []uint64) uint64 {
	var s uint64
	for i := range words {
		s += words[i]
	}
	return s
}

// The last-element idiom under a non-empty guard.
//
//logicreg:hotpath
func lastWord(words []uint64) uint64 {
	if len(words) > 0 {
		return words[len(words)-1]
	}
	return 0
}

// A reviewed exception: the caller contract bounds i, but the proof is
// interprocedural and out of the compiler's reach.
//
//logicreg:hotpath
func trustedLoad(words []uint64, i int) uint64 {
	//logicreg:allow shiftrange caller validates i against the vector width
	return words[i]
}
