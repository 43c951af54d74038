package bitvec

// Rows: the transpose between lane layout and row layout, and the '0'/'1'
// line codec over rows.
//
// A batch of patterns in lane layout holds one lane per signal: lane i is w
// words, and bit k of the lane (word k/64, bit k%64) is the signal's value
// in pattern k. Row layout is its transpose: one row per pattern, of
// RowWords(nLanes) words, whose bit i is lane i's value. Memo keys, wire
// lines and transcript lines are rows, so every path between them goes
// through one 64×64 bit transpose per 64 patterns instead of one bit at a
// time.
//
// The line codec maps a row of n bits to n characters, bit i to character
// i, '0' or '1', eight characters per step: a byte → 8-character table on
// the way out, a SWAR (SIMD within a register) check-and-gather on the way
// in.

import "fmt"

// RowWords returns the number of words in a row of n bits.
//
//logicreg:hotpath
func RowWords(n int) int { return (n + 63) >> 6 }

// Transpose64 transposes the 64×64 bit matrix m in place: bit j of m[i]
// becomes bit i of m[j]. Each of the six rounds swaps the off-diagonal
// blocks of one size, exchanging one bit of the row index with the same bit
// of the column index.
//
//logicreg:hotpath
func Transpose64(m *[64]Word) {
	for i := 0; i < 32; i++ {
		t := (m[i]>>32 ^ m[i+32]) & 0x00000000FFFFFFFF
		m[i+32] ^= t
		m[i] ^= t << 32
	}
	for i := 0; i < 48; i++ {
		if i&16 == 0 {
			t := (m[i]>>16 ^ m[i+16]) & 0x0000FFFF0000FFFF
			m[i+16] ^= t
			m[i] ^= t << 16
		}
	}
	for i := 0; i < 56; i++ {
		if i&8 == 0 {
			t := (m[i]>>8 ^ m[i+8]) & 0x00FF00FF00FF00FF
			m[i+8] ^= t
			m[i] ^= t << 8
		}
	}
	for i := 0; i < 60; i++ {
		if i&4 == 0 {
			t := (m[i]>>4 ^ m[i+4]) & 0x0F0F0F0F0F0F0F0F
			m[i+4] ^= t
			m[i] ^= t << 4
		}
	}
	for i := 0; i < 62; i++ {
		if i&2 == 0 {
			t := (m[i]>>2 ^ m[i+2]) & 0x3333333333333333
			m[i+2] ^= t
			m[i] ^= t << 2
		}
	}
	for i := 0; i < 63; i += 2 {
		t := (m[i]>>1 ^ m[i+1]) & 0x5555555555555555
		m[i+1] ^= t
		m[i] ^= t << 1
	}
}

// LanesToRows transposes pattern block b (patterns 64b to 64b+63) of a
// lane-layout batch, nLanes lanes of w words each, into rows of
// rw = RowWords(nLanes) words: row p is rows[p*rw : (p+1)*rw], and bit i of
// it is lane i's bit for pattern 64b+p. It writes len(rows)/rw rows, at most
// 64; bits past nLanes are zero.
//
//logicreg:hotpath
func LanesToRows(rows, lanes []Word, w, nLanes, b int) {
	rw := RowWords(nLanes)
	if b < 0 || b >= w || len(lanes) < nLanes*w || len(rows) < rw {
		panic(fmt.Sprintf("bitvec: LanesToRows block %d of %d lanes x %d words into %d row words",
			b, nLanes, w, len(rows)))
	}
	var blk [64]Word
	for c := 0; c < rw; c++ {
		for r := 0; r < 64; r++ {
			var x Word
			if i := c*64 + r; i < nLanes {
				if j := i*w + b; j >= 0 && j < len(lanes) {
					x = lanes[j]
				}
			}
			blk[r] = x
		}
		Transpose64(&blk)
		for p := 0; p < 64; p++ {
			j := p*rw + c
			if j < 0 || j >= len(rows) {
				break
			}
			rows[j] = blk[p]
		}
	}
}

// RowsToLanes is the inverse of LanesToRows: it transposes the
// len(rows)/rw rows (at most 64; missing rows read as zero) into pattern
// block b of the lanes, ORing into word b of lanes 0 to nLanes-1. On lanes
// whose block b is zero that is an exact transpose; row bits past nLanes
// are ignored.
//
//logicreg:hotpath
func RowsToLanes(lanes []Word, w, nLanes, b int, rows []Word) {
	rw := RowWords(nLanes)
	if b < 0 || b >= w || len(lanes) < nLanes*w {
		panic(fmt.Sprintf("bitvec: RowsToLanes block %d into %d lanes x %d words", b, nLanes, w))
	}
	var blk [64]Word
	for c := 0; c < rw; c++ {
		for p := 0; p < 64; p++ {
			var x Word
			if j := p*rw + c; j >= 0 && j < len(rows) {
				x = rows[j]
			}
			blk[p] = x
		}
		Transpose64(&blk)
		for r := 0; r < 64; r++ {
			i := c*64 + r
			if i >= nLanes {
				break
			}
			if j := i*w + b; j >= 0 && j < len(lanes) {
				lanes[j] |= blk[r]
			}
		}
	}
}

// digits maps a byte to its eight characters, bit 0 first.
var digits = func() (t [256][8]byte) {
	for v := range t {
		for k := range t[v] {
			t[v][k] = '0' + byte(v>>k&1)
		}
	}
	return t
}()

// FormatRow writes bits [0, len(dst)) of row into dst, bit i as dst[i] =
// '0' or '1'. row must hold RowWords(len(dst)) words.
//
//logicreg:hotpath
func FormatRow(dst []byte, row []Word) {
	n := len(dst)
	if len(row) < RowWords(n) {
		panic(fmt.Sprintf("bitvec: FormatRow of %d bits from %d words", n, len(row)))
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		j := i >> 6
		if j >= len(row) {
			break
		}
		d := (*[8]byte)(dst[i : i+8])
		*d = digits[byte(row[j]>>(uint(i)&63))]
	}
	for ; i < n; i++ {
		j := i >> 6
		if j >= len(row) {
			break
		}
		dst[i] = '0' + byte(row[j]>>(uint(i)&63)&1)
	}
}

// ParseRow decodes the '0'/'1' characters of line into row, character i to
// bit i, clearing the bits of row's last used word past len(line). It
// returns the index of the first byte that is neither '0' nor '1', or -1
// when the whole line decodes; on a bad byte the content of row is
// unspecified. row must hold RowWords(len(line)) words.
//
// Eight characters at a time: XOR with '0' leaves each byte 0 or 1 exactly
// when it was '0' or '1', which one mask test checks, and a multiply
// gathers the eight low bits into one byte.
//
//logicreg:hotpath
func ParseRow(row []Word, line []byte) int {
	n := len(line)
	if len(row) < RowWords(n) {
		panic(fmt.Sprintf("bitvec: ParseRow of %d characters into %d words", n, len(row)))
	}
	var acc Word
	i := 0
	for ; i+8 <= n; i += 8 {
		c := (*[8]byte)(line[i : i+8])
		x := (uint64(c[0]) | uint64(c[1])<<8 | uint64(c[2])<<16 | uint64(c[3])<<24 |
			uint64(c[4])<<32 | uint64(c[5])<<40 | uint64(c[6])<<48 | uint64(c[7])<<56) ^
			0x3030303030303030
		if x&0xFEFEFEFEFEFEFEFE != 0 {
			for k, ch := range c {
				if ch != '0' && ch != '1' {
					return i + k
				}
			}
		}
		acc |= (x * 0x0102040810204080 >> 56) << (uint(i) & 63)
		if i&63 == 56 {
			if j := i >> 6; j < len(row) {
				row[j] = acc
			}
			acc = 0
		}
	}
	for ; i < n; i++ {
		d := line[i] ^ '0'
		if d > 1 {
			return i
		}
		acc |= Word(d) << (uint(i) & 63)
	}
	if n&63 != 0 {
		if j := n >> 6; j < len(row) {
			row[j] = acc
		}
	}
	return -1
}

// PackBools packs bs into row, bs[i] to bit i, and clears the rest of the
// RowWords(len(bs)) words it writes.
func PackBools(row []Word, bs []bool) {
	for j := 0; j < RowWords(len(bs)); j++ {
		row[j] = 0
	}
	for i, b := range bs {
		if b {
			row[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// UnpackBools expands bits [0, len(bs)) of row into bs.
func UnpackBools(bs []bool, row []Word) {
	for i := range bs {
		bs[i] = row[i>>6]>>(uint(i)&63)&1 == 1
	}
}
