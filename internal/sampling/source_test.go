package sampling

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"logicregression/internal/oracle"
	"logicregression/internal/sop"
)

// sourceSeeds are the seeds the Source tests compare: zero (math/rand maps
// it to 89482311, also listed), ±1, both sides of 2^31-1 (the modulus of
// the seeding), and a negative seed beyond 32 bits.
var sourceSeeds = []int64{0, 1, -1, 1<<31 - 1, 1 << 31, -1 << 40, 89482311}

// TestSourceMatchesMathRand checks Source's stream against math/rand's for
// the same seed over more than three ring refills, drawing through
// rand.New(src) with Uint64, Int63, Float64 and Intn interleaved (Intn's
// rejection loop shifts the alignment) and through src.Uint64 directly.
// One Source is re-seeded for every seed, so Seed's reuse of its seeder is
// checked too.
func TestSourceMatchesMathRand(t *testing.T) {
	src := new(Source)
	for _, seed := range sourceSeeds {
		src.Seed(seed)
		got, want := rand.New(src), rand.New(rand.NewSource(seed))
		for k := 0; k < 4*ringLen; k++ {
			var g, w any
			switch k % 5 {
			case 0:
				g, w = got.Uint64(), want.Uint64()
			case 1:
				g, w = got.Int63(), want.Int63()
			case 2:
				g, w = got.Float64(), want.Float64()
			case 3:
				n := 1 + k*7919%(1<<30)
				g, w = got.Intn(n), want.Intn(n)
			default:
				g, w = src.Uint64(), want.Uint64()
			}
			if g != w {
				t.Fatalf("seed %d, draw %d: got %v, math/rand %v", seed, k, g, w)
			}
		}
	}
}

// biasEdges are the biases the bulk fill is compared at: the default pool
// (1, 2, 2, 16 and 15 draws a word), the two constants, and the one-draw
// and sixteen-draw ends of the 16-digit quantization.
var biasEdges = append(append([]float64(nil), DefaultRatios...), 0, 1, 1.0/65536, 65535.0/65536)

// TestFillBiasedMatchesBiasedWord checks the bulk fill against BiasedWord
// on a *rand.Rand of the same seed, word for word, and that both leave the
// generator at the same place. The fills start at offsets that put a word
// across a refill, and run long enough to cross several.
func TestFillBiasedMatchesBiasedWord(t *testing.T) {
	for _, p := range biasEdges {
		for _, skip := range []int{0, 1, ringLen - 16, ringLen - 5, ringLen - 1, ringLen} {
			for _, n := range []int{1, 37, ringLen, 3 * ringLen} {
				seed := int64(skip*31 + n)
				src, ref := NewSource(seed), rand.New(rand.NewSource(seed))
				for k := 0; k < skip; k++ {
					src.Uint64()
					ref.Uint64()
				}
				dst := make([]uint64, n)
				src.fillBiased(dst, p)
				for i, g := range dst {
					if w := BiasedWord(ref, p); g != w {
						t.Fatalf("p=%v skip=%d n=%d: word %d is %#x, BiasedWord %#x", p, skip, n, i, g, w)
					}
				}
				if g, w := src.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("p=%v skip=%d n=%d: next draw %#x, BiasedWord's %#x", p, skip, n, g, w)
				}
			}
		}
	}
	// Fills of mixed bias back to back, as PatternSampling's blocks run.
	src, ref := NewSource(5), rand.New(rand.NewSource(5))
	for b := 0; b < 200; b++ {
		p := biasEdges[b%len(biasEdges)]
		dst := make([]uint64, 1+b%41)
		fillBiased(src, dst, p)
		for i, g := range dst {
			if w := BiasedWord(ref, p); g != w {
				t.Fatalf("block %d (p=%v): word %d is %#x, BiasedWord %#x", b, p, i, g, w)
			}
		}
	}
	if g, w := src.Uint64(), ref.Uint64(); g != w {
		t.Fatalf("after the blocks: next draw %#x, BiasedWord's %#x", g, w)
	}
}

// TestPatternSamplingSourceMatchesRand runs one sweep on a *Source and one
// on a *rand.Rand of the same seed, and the per-input reference on another
// *rand.Rand: the three Results and the generators' next draws must agree.
// R covers one pattern, the tree's 60, one short of a word, one word, one
// past it, two words unaligned and aligned, the benchmark's support R,
// three sub-batches a call, and one past a whole oracle call, on case_10
// and on the wide box.
func TestPatternSamplingSourceMatchesRand(t *testing.T) {
	// Output 1 of case_10 depends on inputs 5, 18, 22, 25 and 36; the cube
	// binds one of them and one other input, and the candidates include
	// both bound inputs and three of the support.
	cube, _ := sop.NewCube(sop.Literal{Var: 3, Neg: false}, sop.Literal{Var: 22, Neg: true})
	cands := []int{0, 3, 5, 7, 11, 18, 22, 25, 31}
	shapes := sweepShapes(t, cube, cands)
	for _, r := range []int{1, 60, 63, 64, 65, 100, 128, 768, 5000, sweepChunk + 1} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("R=%d/%s", r, sh.name), func(t *testing.T) {
				cfg := Config{R: r, Candidates: sh.cands}
				seed := int64(r)*3 + int64(len(sh.cube)+len(sh.cands))
				src, rng, ref := NewSource(seed), rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got := PatternSampling(sh.o, sh.out, sh.cube, cfg, src)
				want := PatternSampling(sh.o, sh.out, sh.cube, cfg, rng)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Source %+v\nrand.Rand %+v", got, want)
				}
				if loop := referenceSampling(oracle.NewCounter(sh.o), sh.out, sh.cube, cfg, ref); !reflect.DeepEqual(got, loop) {
					t.Fatalf("Source %+v\nreference %+v", got, loop)
				}
				g, w, x := src.Uint64(), rng.Uint64(), ref.Uint64()
				if g != w || g != x {
					t.Fatalf("next draw: Source %#x, rand.Rand %#x, reference %#x", g, w, x)
				}
			})
		}
	}
}

// TestRandomWordsSourceMatchesRand checks RandomWords' bulk path, cube
// included, against the per-draw path.
func TestRandomWordsSourceMatchesRand(t *testing.T) {
	cube, _ := sop.NewCube(sop.Literal{Var: 1, Neg: false}, sop.Literal{Var: 4, Neg: true})
	src, rng := NewSource(3), rand.New(rand.NewSource(3))
	for k := 0; k < 100; k++ {
		p := biasEdges[k%len(biasEdges)]
		if g, w := RandomWords(src, 50, p, cube), RandomWords(rng, 50, p, cube); !reflect.DeepEqual(g, w) {
			t.Fatalf("call %d (p=%v): Source %x\nrand.Rand %x", k, p, g, w)
		}
	}
	if g, w := src.Uint64(), rng.Uint64(); g != w {
		t.Fatalf("next draw %#x, rand.Rand %#x", g, w)
	}
}
