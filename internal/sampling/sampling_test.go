package sampling

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
	"logicregression/internal/sop"
)

func testOracle() oracle.Oracle {
	// z = (a AND b) XOR c ; w = d (a, b, c, d inputs; e unused)
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	cc := c.AddPI("c")
	d := c.AddPI("d")
	c.AddPI("e")
	c.AddPO("z", c.Xor(c.And(a, b), cc))
	c.AddPO("w", d)
	return oracle.FromCircuit(c)
}

func TestPatternSamplingFindsSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res := PatternSampling(testOracle(), 0, nil, Config{R: 256}, rng)
	sup := res.Support()
	want := map[int]bool{0: true, 1: true, 2: true}
	if len(sup) != 3 {
		t.Fatalf("support = %v, want inputs 0,1,2", sup)
	}
	for _, i := range sup {
		if !want[i] {
			t.Fatalf("support contains non-supporting input %d", i)
		}
	}
	// c (index 2) flips the output on every assignment: it must dominate.
	if mi, _, ok := res.MostSignificant(); !ok || mi != 2 {
		t.Fatalf("MostSignificant = %d, want 2", mi)
	}
}

func TestPatternSamplingRespectsCube(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cube, _ := sop.NewCube(sop.Literal{Var: 2, Neg: false}) // c = 1
	res := PatternSampling(testOracle(), 0, cube, Config{R: 128}, rng)
	if res.D[2] != -1 {
		t.Fatalf("constrained input has D = %d, want -1", res.D[2])
	}
	for _, i := range res.Free {
		if i == 2 {
			t.Fatal("constrained input listed as free")
		}
	}
	// With c=1, z = NOT(a AND b): TruthRatio must exceed 1/2 under the
	// even-ratio pool (3/4 of (a,b) pairs give 1).
	if res.TruthRatio < 0.5 {
		t.Fatalf("TruthRatio = %f, want > 0.5 under c=1", res.TruthRatio)
	}
}

func TestPatternSamplingConstantUnderCube(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Constrain a=0: then a AND b = 0, z = c; with c also constrained to 0,
	// the output is constant 0.
	cube, _ := sop.NewCube(
		sop.Literal{Var: 0, Neg: true},
		sop.Literal{Var: 2, Neg: true},
	)
	res := PatternSampling(testOracle(), 0, cube, Config{R: 128}, rng)
	if res.TruthRatio != 0 {
		t.Fatalf("TruthRatio = %f, want 0", res.TruthRatio)
	}
	if _, _, ok := res.MostSignificant(); ok {
		t.Fatal("constant function reported a significant input")
	}
}

func TestPatternSamplingSecondOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	res := PatternSampling(testOracle(), 1, nil, Config{R: 128}, rng)
	sup := res.Support()
	if len(sup) != 1 || sup[0] != 3 {
		t.Fatalf("support of w = %v, want [3]", sup)
	}
}

func TestPatternSamplingZeroR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	res := PatternSampling(testOracle(), 0, nil, Config{R: 0}, rng)
	if res.Samples != 0 || res.TruthRatio != 0 {
		t.Fatalf("R=0 result = %+v", res)
	}
	if len(res.Free) != 5 {
		t.Fatalf("Free = %v", res.Free)
	}
}

func TestPatternSamplingNonMultipleOf64(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	res := PatternSampling(testOracle(), 0, nil, Config{R: 70}, rng)
	// 5 free inputs * 2 * 70 samples.
	if res.Samples != 700 {
		t.Fatalf("Samples = %d, want 700", res.Samples)
	}
	for _, i := range res.Free {
		if res.D[i] > 70 {
			t.Fatalf("D[%d] = %d exceeds R", i, res.D[i])
		}
	}
}

func TestBiasedWordExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if BiasedWord(rng, 0) != 0 {
		t.Fatal("p=0 word not zero")
	}
	if BiasedWord(rng, 1) != ^uint64(0) {
		t.Fatal("p=1 word not all ones")
	}
}

func TestBiasedWordStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		const words = 4000
		ones := 0
		for k := 0; k < words; k++ {
			ones += bits.OnesCount64(BiasedWord(rng, p))
		}
		got := float64(ones) / float64(words*64)
		if math.Abs(got-p) > 0.01 {
			t.Errorf("bias %f: measured %f", p, got)
		}
	}
}

// referenceBiasedWord is BiasedWord as a branching loop over the 16 binary
// digits of q, skipping the digits below the lowest set one.
func referenceBiasedWord(rng *rand.Rand, p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return ^uint64(0)
	case p == 0.5:
		return rng.Uint64()
	}
	q := uint32(p * 65536)
	if q == 0 {
		return 0
	}
	var w uint64
	started := false
	for bit := 0; bit < 16; bit++ {
		d := q >> uint(bit) & 1
		if !started {
			if d == 1 {
				w = rng.Uint64()
				started = true
			}
			continue
		}
		if d == 1 {
			w |= rng.Uint64()
		} else {
			w &= rng.Uint64()
		}
	}
	return w
}

// TestBiasedWordMatchesReference checks that BiasedWord returns the
// reference's word and leaves the generator where the reference does (the
// next draw agrees), over the default pool, the edges of the 16-digit
// quantization and a few thousand random biases.
func TestBiasedWordMatchesReference(t *testing.T) {
	ps := append([]float64(nil), DefaultRatios...)
	ps = append(ps, 0, 1, -0.5, 1.5, 0.5/65536, 1.0/65536, 2.0/65536, 3.0/65536,
		65535.0/65536, 65534.0/65536, 0.5+1.0/65536, math.Nextafter(1, 0), math.SmallestNonzeroFloat64)
	pick := rand.New(rand.NewSource(21))
	for k := 0; k < 2000; k++ {
		ps = append(ps, pick.Float64(), float64(pick.Intn(65536))/65536)
	}
	for k, p := range ps {
		seed := int64(k)
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		if g, w := BiasedWord(got, p), referenceBiasedWord(want, p); g != w {
			t.Fatalf("p=%v: word %016x, reference %016x", p, g, w)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("p=%v: next draw %016x, reference %016x", p, g, w)
		}
	}
}

func TestRandomAssignmentBiasAndCube(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cube, _ := sop.NewCube(sop.Literal{Var: 0, Neg: false}, sop.Literal{Var: 3, Neg: true})
	ones := 0
	const trials = 2000
	for k := 0; k < trials; k++ {
		a := RandomAssignment(rng, 10, 0.8, cube)
		if !a[0] || a[3] {
			t.Fatal("cube not applied")
		}
		for i, b := range a {
			if i != 0 && i != 3 && b {
				ones++
			}
		}
	}
	got := float64(ones) / float64(trials*8)
	if math.Abs(got-0.8) > 0.03 {
		t.Fatalf("assignment bias = %f, want 0.8", got)
	}
}

func TestRandomWordsCube(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cube, _ := sop.NewCube(sop.Literal{Var: 1, Neg: false}, sop.Literal{Var: 2, Neg: true})
	w := RandomWords(rng, 4, 0.5, cube)
	if w[1] != ^uint64(0) || w[2] != 0 {
		t.Fatal("cube not applied to words")
	}
}

func TestUnevenRatioFindsHiddenSupport(t *testing.T) {
	// f = AND of 8 inputs: under even sampling, toggling input i flips the
	// output only when the other 7 are all 1 (P = 1/128 per sample). The
	// high-bias pool member makes flips common. This reproduces the paper's
	// rationale for combined even/uneven sampling.
	c := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < 8; i++ {
		sigs = append(sigs, c.AddPI("x"+string(rune('0'+i))))
	}
	c.AddPO("z", c.AndTree(sigs))
	o := oracle.FromCircuit(c)

	rng := rand.New(rand.NewSource(11))
	biased := PatternSampling(o, 0, nil, Config{R: 192, Ratios: []float64{0.9}}, rng)
	if len(biased.Support()) != 8 {
		t.Fatalf("biased sampling support = %v, want all 8", biased.Support())
	}
}

func TestDependencyCountExactForXor(t *testing.T) {
	// For z = a XOR b, toggling a always flips z: D_a must equal R exactly.
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	c.AddPO("z", c.Xor(a, b))
	o := oracle.FromCircuit(c)
	rng := rand.New(rand.NewSource(12))
	res := PatternSampling(o, 0, nil, Config{R: 100}, rng)
	if res.D[0] != 100 || res.D[1] != 100 {
		t.Fatalf("D = %v, want [100 100]", res.D)
	}
	if res.TruthRatio != 0.5 {
		// Exactly half of the toggled pairs are 1 for XOR.
		t.Fatalf("TruthRatio = %f, want 0.5", res.TruthRatio)
	}
}

// Property: dependency counts never exceed R and Samples is always 2*R*|Free|.
func TestQuickSamplingBounds(t *testing.T) {
	o := testOracle()
	f := func(seed int64, rRaw uint8) bool {
		r := int(rRaw)%150 + 1
		rng := rand.New(rand.NewSource(seed))
		res := PatternSampling(o, 0, nil, Config{R: r}, rng)
		if res.Samples != 2*r*len(res.Free) {
			return false
		}
		for _, i := range res.Free {
			if res.D[i] < 0 || res.D[i] > r {
				return false
			}
		}
		return res.TruthRatio >= 0 && res.TruthRatio <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPatternSamplingBatchMatchesScalar pins the batching-on/off equivalence:
// the batched probe loop must consume the RNG in exactly the scalar order and
// produce an identical Result.
func TestPatternSamplingBatchMatchesScalar(t *testing.T) {
	o := testOracle()
	cube, _ := sop.NewCube(sop.Literal{Var: 2, Neg: false})
	for _, tc := range []struct {
		name string
		cube sop.Cube
		r    int
	}{
		{"free-64", nil, 64},
		{"free-odd", nil, 257},
		{"cube-100", cube, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast := PatternSampling(o, 0, tc.cube, Config{R: tc.r}, rand.New(rand.NewSource(7)))
			slow := PatternSampling(oracle.ScalarOnly(o), 0, tc.cube, Config{R: tc.r}, rand.New(rand.NewSource(7)))
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("batch %+v\nscalar %+v", fast, slow)
			}
		})
	}
}
