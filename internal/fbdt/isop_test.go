package fbdt

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"logicregression/internal/bdd"
	"logicregression/internal/oracle"
	"logicregression/internal/sop"
)

// tableOracle answers output 0 as f[p], where bit b of p is the value of
// input sup[b]. Like a circuit, it answers every lane of the batch's words,
// those past n too.
type tableOracle struct {
	oracle.Oracle
	sup []int
	f   []bool
}

func (o *tableOracle) EvalBatch(patterns []uint64, n int) []uint64 {
	w := oracle.Words(n)
	got := make([]uint64, w)
	for lane := 0; lane < 64*w; lane++ {
		p := 0
		for b, in := range o.sup {
			p |= int(patterns[in*w+lane/64]>>(lane%64)&1) << b
		}
		if o.f[p] {
			got[lane/64] |= 1 << (lane % 64)
		}
	}
	return got
}

// isopTable returns a function of k inputs as f[p], bit b of p being the
// value of the b-th support input.
func isopTable(kind string, k int, rng *rand.Rand) []bool {
	f := make([]bool, 1<<k)
	// "gated" is the first input and a random function g of the fourth on.
	// The first input's positive cofactor depends on neither the second
	// nor the third input, its top index bits, so its table repeats one
	// block across its words.
	var g []bool
	if kind == "gated" {
		g = isopTable("random", max(k-3, 0), rng)
	}
	for p := range f {
		switch kind {
		case "random":
			f[p] = rng.Intn(2) == 1
		case "parity":
			f[p] = bits.OnesCount(uint(p))%2 == 1
		case "sparse":
			f[p] = rng.Intn(50) == 0
		case "dense":
			f[p] = rng.Intn(50) != 0
		case "ones":
			f[p] = true
		case "gated":
			f[p] = p&1 == 1 && g[p>>3]
		case "xor-of-ands":
			// x0x1 ^ x2x3 ^ ..., and the last input alone when k is odd.
			for b := 0; b < k; b += 2 {
				pair := p >> b & 3
				if b+1 == k {
					pair = p >> b & 1 * 3
				}
				f[p] = f[p] != (pair == 3)
			}
		default:
			panic(kind)
		}
	}
	return f
}

// TestISOPMatchesBDD learns tables of every kind through Exhaustive and
// checks the onset and offset covers cube for cube against the BDD
// Minato-Morreale ISOP of the same table, with the inputs in support order.
func TestISOPMatchesBDD(t *testing.T) {
	kinds := []string{"random", "parity", "sparse", "dense", "xor-of-ands", "ones", "gated"}
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 16, 18}
	rng := rand.New(rand.NewSource(27))
	for _, k := range sizes {
		sup := make([]int, k)
		for i := range sup {
			sup[i] = 3*i + 1 // gaps between the support inputs
		}
		ins := make([]string, 3*k+2)
		for i := range ins {
			ins[i] = fmt.Sprintf("x%d", i)
		}
		for _, kind := range kinds {
			if k == 18 && (kind == "random" || kind == "sparse" || kind == "dense" || kind == "gated") {
				continue // the BDD reference takes seconds on drawn 18-input tables
			}
			f := isopTable(kind, k, rng)
			t.Run(fmt.Sprintf("k=%d/%s", k, kind), func(t *testing.T) {
				o := &tableOracle{Oracle: &oracle.FuncOracle{Ins: ins, Outs: []string{"z"}}, sup: sup, f: f}
				res := Exhaustive(o, 0, sup, rand.New(rand.NewSource(1)))
				m := bdd.NewManager(len(ins), 0)
				root := bdd.FromTruthTable(m, f, sup)
				checkCover(t, "onset", res.Onset, m.ISOP(root))
				checkCover(t, "offset", res.Offset, m.ISOP(m.Not(root)))
			})
		}
	}
}

// TestExhaustiveAllocatesToTheTable bounds what Exhaustive allocates on a
// 12-input AND: its truth table and the ISOP's scratch take 2^12/64 words
// each, the lanes and the answers a few kilobytes more, and the covers are
// 13 short cubes. A table sized 4096 times too long would still give the
// same covers, but would take megabytes.
func TestExhaustiveAllocatesToTheTable(t *testing.T) {
	const k = 12
	sup := make([]int, k)
	ins := make([]string, k)
	for i := range sup {
		sup[i], ins[i] = i, fmt.Sprintf("x%d", i)
	}
	f := make([]bool, 1<<k)
	f[len(f)-1] = true
	o := &tableOracle{Oracle: &oracle.FuncOracle{Ins: ins, Outs: []string{"z"}}, sup: sup, f: f}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Exhaustive(o, 0, sup, nil)
	runtime.ReadMemStats(&after)
	if len(res.Onset) != 1 || len(res.Offset) != k {
		t.Fatalf("got %d onset and %d offset cubes, want 1 and %d", len(res.Onset), len(res.Offset), k)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Fatalf("Exhaustive over %d inputs allocated %d bytes, want at most 256 KiB", k, got)
	}
}

func checkCover(t *testing.T, what string, got, want sop.Cover) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cubes, BDD ISOP has %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: cube %d is %v, BDD ISOP has %v", what, i, got[i], want[i])
		}
	}
}
