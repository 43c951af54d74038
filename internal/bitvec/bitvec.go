// Package bitvec holds the bit-packed layouts of the word-parallel
// simulation: the 64-pattern simulation word, and the lane ↔ row transpose
// and '0'/'1' row codec (rows.go) that memo keys, wire lines and transcript
// lines go through.
//
// Bits are little-endian within 64-bit words: bit i of a lane or a row
// lives in word i/64 at position i%64. The //logicreg:hotpath functions
// here are held to the hot-path contracts (DESIGN.md §12): no heap
// allocation, every shift amount constant or masked, and no bounds check
// left after the compiler's bounds-check elimination.
package bitvec

// Word is a 64-wide simulation word: one bit position per parallel pattern.
type Word = uint64
