package bitvec

import (
	"math/rand"
	"testing"
)

func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var m, orig [64]Word
		for i := range m {
			m[i] = rng.Uint64()
		}
		orig = m
		Transpose64(&m)
		for i := 0; i < 64; i++ {
			for j := 0; j < 64; j++ {
				if m[j]>>uint(i)&1 != orig[i]>>uint(j)&1 {
					t.Fatalf("trial %d: bit (%d,%d) not transposed", trial, i, j)
				}
			}
		}
		Transpose64(&m)
		if m != orig {
			t.Fatalf("trial %d: transposing twice is not the identity", trial)
		}
	}
}

// TestLanesRowsRoundTrip checks both transposes bit by bit against the lane
// layout, over lane counts around the word boundaries, several lane widths
// and blocks, and short row buffers.
func TestLanesRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, nLanes := range []int{0, 1, 3, 8, 56, 63, 64, 65, 127, 128, 173} {
		for _, w := range []int{1, 2, 5} {
			rw := RowWords(nLanes)
			lanes := make([]Word, nLanes*w)
			for i := range lanes {
				lanes[i] = rng.Uint64()
			}
			back := make([]Word, len(lanes))
			for b := 0; b < w; b++ {
				nRows := 64
				if b == w-1 {
					nRows = 1 + rng.Intn(64) // a short last block
				}
				rows := make([]Word, nRows*rw)
				for i := range rows {
					rows[i] = rng.Uint64() // overwritten
				}
				LanesToRows(rows, lanes, w, nLanes, b)
				for p := 0; p < nRows; p++ {
					for i := 0; i < rw*64; i++ {
						got := rows[p*rw+i>>6]>>uint(i&63)&1 == 1
						want := i < nLanes && lanes[i*w+b]>>uint(p)&1 == 1
						if got != want {
							t.Fatalf("nLanes=%d w=%d b=%d: row %d bit %d = %v, want %v", nLanes, w, b, p, i, got, want)
						}
					}
				}
				RowsToLanes(back, w, nLanes, b, rows)
			}
			for i := 0; i < nLanes; i++ {
				for b := 0; b < w; b++ {
					want := lanes[i*w+b]
					if b == w-1 {
						// Only the rows that were written come back.
						got := back[i*w+b]
						if got&^want != 0 {
							t.Fatalf("nLanes=%d w=%d: lane %d word %d gained bits %x", nLanes, w, i, b, got&^want)
						}
						continue
					}
					if back[i*w+b] != want {
						t.Fatalf("nLanes=%d w=%d: lane %d word %d = %x, want %x", nLanes, w, i, b, back[i*w+b], want)
					}
				}
			}
		}
	}
}

// refFormat and refParse are the per-character codec the word-level one
// replaces.
func refFormat(bits []bool) string {
	buf := make([]byte, len(bits))
	for i, b := range bits {
		if b {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

func refParse(s []byte) ([]bool, int) {
	out := make([]bool, len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			out[i] = true
		default:
			return nil, i
		}
	}
	return out, -1
}

func TestFormatParseRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 200; n++ {
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		row := make([]Word, RowWords(n))
		PackBools(row, bits)
		line := make([]byte, n)
		FormatRow(line, row)
		if string(line) != refFormat(bits) {
			t.Fatalf("n=%d: FormatRow = %q, want %q", n, line, refFormat(bits))
		}
		got := make([]Word, RowWords(n))
		for i := range got {
			got[i] = rng.Uint64() // ParseRow clears the tail
		}
		if bad := ParseRow(got, line); bad != -1 {
			t.Fatalf("n=%d: ParseRow rejected byte %d of %q", n, bad, line)
		}
		for i := range got {
			if got[i] != row[i] {
				t.Fatalf("n=%d: word %d = %x, want %x", n, i, got[i], row[i])
			}
		}
		back := make([]bool, n)
		UnpackBools(back, got)
		if refFormat(back) != refFormat(bits) {
			t.Fatalf("n=%d: UnpackBools round trip differs", n)
		}
		// Every single-byte corruption is reported at its position.
		if n > 0 {
			for _, c := range []byte{'2', '/', ' ', 0xB0, 0xB1, 0x00, 0x80} {
				i := rng.Intn(n)
				bad := append([]byte(nil), line...)
				bad[i] = c
				if got := ParseRow(make([]Word, RowWords(n)), bad); got != i {
					t.Fatalf("n=%d: byte %#x at %d reported at %d", n, c, i, got)
				}
			}
		}
	}
}

// FuzzParseRow: a line decodes exactly when the per-character parser
// accepts it, to the same bits, and reports the same first bad byte when it
// does not; an accepted line formats back to itself.
func FuzzParseRow(f *testing.F) {
	for _, s := range []string{"", "0", "1", "01", "0101010101", "0000000011111111",
		"\xb0\xb1", "0000000\xb1", "01234567", "1111111111111111111111111111111111111111111111111111111111111111110"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		row := make([]Word, RowWords(len(line)))
		bad := ParseRow(row, line)
		want, wantBad := refParse(line)
		if bad != wantBad {
			t.Fatalf("ParseRow(%q) = %d, reference %d", line, bad, wantBad)
		}
		if bad >= 0 {
			return
		}
		got := make([]bool, len(line))
		UnpackBools(got, row)
		if refFormat(got) != refFormat(want) {
			t.Fatalf("ParseRow(%q) decoded %s", line, refFormat(got))
		}
		if n := len(line); n&63 != 0 && row[len(row)-1]>>uint(n&63) != 0 {
			t.Fatalf("ParseRow(%q) left bits past the line", line)
		}
		out := make([]byte, len(line))
		FormatRow(out, row)
		if string(out) != string(line) {
			t.Fatalf("FormatRow round trip: %q -> %q", line, out)
		}
	})
}
