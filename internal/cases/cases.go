// Package cases provides the 20 synthetic benchmark circuits that stand in
// for the (proprietary, unavailable) 2019 ICCAD CAD Contest benchmarks of
// Table II. Each case matches the paper's PI/PO counts and category
// (NEQ/ECO/DIAG/DATA), and its structural family follows the category
// description in Sec. V:
//
//   - NEQ:  miter structures of non-equivalent logic cones
//   - ECO:  patch / logic-difference control logic
//   - DIAG: semantic conditions over bus variables (comparators)
//   - DATA: arithmetic datapath (linear combinations of buses)
//
// Hardness is controlled per case to reproduce the paper's outcome shape:
// the cases the winning tool solved exactly stay easy/medium here; the cases
// everyone failed (case_9, case_14, case_18) are wide parity-rich functions
// that defeat sampling-based tree learners by construction.
package cases

import (
	"fmt"
	"math/rand"

	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
)

// Category labels the application scenario of a case.
type Category string

// Categories of Table II.
const (
	NEQ  Category = "NEQ"
	ECO  Category = "ECO"
	DIAG Category = "DIAG"
	DATA Category = "DATA"
)

// PaperRow holds the "Ours" columns of Table II for reference in
// EXPERIMENTS.md (size, accuracy %, seconds); Failed marks "-" rows.
type PaperRow struct {
	Size     int
	Accuracy float64
	Time     float64
	Failed   bool
}

// Case is one synthetic benchmark.
type Case struct {
	Name   string
	Type   Category
	Hidden bool // hidden (starred) contest case
	// Circuit is the golden netlist behind the black box.
	Circuit *circuit.Circuit
	// Paper is the paper's own result on the original benchmark.
	Paper PaperRow
	// Hard marks cases the paper's tool could not learn to >99%.
	Hard bool
}

// Oracle returns the black-box view of the case.
func (c *Case) Oracle() oracle.Oracle { return oracle.FromCircuit(c.Circuit) }

// table lists the 20 cases in Table II order, each with its constructor,
// so that one case is found and built without building the others.
var table = []struct {
	name  string
	build func() *Case
}{
	{"case_1", case1}, {"case_2", case2}, {"case_3", case3}, {"case_4", case4},
	{"case_5", case5}, {"case_6", case6}, {"case_7", case7}, {"case_8", case8},
	{"case_9", case9}, {"case_10", case10}, {"case_11", case11}, {"case_12", case12},
	{"case_13", case13}, {"case_14", case14}, {"case_15", case15}, {"case_16", case16},
	{"case_17", case17}, {"case_18", case18}, {"case_19", case19}, {"case_20", case20},
}

// ByName builds the named case.
func ByName(name string) (*Case, error) {
	for _, e := range table {
		if e.name == name {
			return e.build(), nil
		}
	}
	return nil, fmt.Errorf("cases: unknown case %q", name)
}

// Names lists all case names in Table II order.
func Names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

// All builds the 20 cases. Construction is deterministic.
func All() []*Case {
	out := make([]*Case, len(table))
	for i, e := range table {
		out[i] = e.build()
	}
	return out
}

// ---- construction helpers ----

// singleName yields non-groupable control-net names (letters only, so the
// name-based grouping never mistakes them for bus bits).
func singleName(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	name := ""
	n := i
	for {
		name = string(letters[n%26]) + name
		n = n/26 - 1
		if n < 0 {
			break
		}
	}
	return "net_" + name
}

// addSingles declares n letter-named PIs.
func addSingles(c *circuit.Circuit, n int, offset int) []circuit.Signal {
	out := make([]circuit.Signal, n)
	for i := range out {
		out[i] = c.AddPI(singleName(offset + i))
	}
	return out
}

// coneSpec is a reproducible random-cone recipe so NEQ miters can replay a
// mutated copy of the same cone. Construction has two phases: a grow phase
// that adds sharing (combinations pushed alongside their operands) and a
// reduce phase that folds the whole frontier down to one signal. Every
// reduce-phase gate is in the transitive fanin of the output, so the cone's
// structural support covers ALL of its inputs and a reduce-phase mutation is
// guaranteed to be observable at the cone output.
type coneSpec struct {
	nInputs int
	grow    int   // number of grow-phase gates
	ops     []int // gate type per step (0..5: AND OR XOR NAND NOR XNOR)
	ai, bi  []int // frontier indices per step
}

func newConeSpec(rng *rand.Rand, nInputs, extra int, xorWeight float64) coneSpec {
	spec := coneSpec{nInputs: nInputs, grow: extra}
	frontier := nInputs
	pick := func() int {
		r := rng.Float64()
		var op int
		switch {
		case r < xorWeight:
			op = 2
		case r < xorWeight+(1-xorWeight)/2:
			op = 0
		default:
			op = 1
		}
		if rng.Intn(4) == 0 {
			op += 3 // inverted variant
		}
		return op
	}
	two := func(n int) (int, int) {
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		return i, j
	}
	for g := 0; g < extra; g++ {
		i, j := two(frontier)
		spec.ops = append(spec.ops, pick())
		spec.ai = append(spec.ai, i)
		spec.bi = append(spec.bi, j)
		frontier++
	}
	for frontier > 1 {
		i, j := two(frontier)
		spec.ops = append(spec.ops, pick())
		spec.ai = append(spec.ai, i)
		spec.bi = append(spec.bi, j)
		frontier--
	}
	return spec
}

// build replays the spec over the given inputs and returns the cone output.
func (s coneSpec) build(c *circuit.Circuit, inputs []circuit.Signal) circuit.Signal {
	frontier := append([]circuit.Signal(nil), inputs...)
	gate := func(op int, a, b circuit.Signal) circuit.Signal {
		switch op {
		case 0:
			return c.And(a, b)
		case 1:
			return c.Or(a, b)
		case 2:
			return c.Xor(a, b)
		case 3:
			return c.Nand(a, b)
		case 4:
			return c.Nor(a, b)
		default:
			return c.Xnor(a, b)
		}
	}
	for g := range s.ops {
		i, j := s.ai[g], s.bi[g]
		out := gate(s.ops[g], frontier[i], frontier[j])
		if g < s.grow {
			frontier = append(frontier, out)
			continue
		}
		// Reduce: remove both operands (higher index first), push result.
		hi, lo := max(i, j), min(i, j)
		frontier = append(frontier[:hi], frontier[hi+1:]...)
		frontier = append(frontier[:lo], frontier[lo+1:]...)
		frontier = append(frontier, out)
	}
	if len(frontier) != 1 {
		panic("cases: cone spec did not reduce to one signal")
	}
	return frontier[0]
}

// mutate returns a copy of the spec with one reduce-phase gate op changed,
// modelling the small logic difference a non-equivalence miter exposes.
// Reduce-phase gates always reach the output, so the mutation is observable.
func (s coneSpec) mutate(rng *rand.Rand) coneSpec {
	out := coneSpec{
		nInputs: s.nInputs,
		grow:    s.grow,
		ops:     append([]int(nil), s.ops...),
		ai:      append([]int(nil), s.ai...),
		bi:      append([]int(nil), s.bi...),
	}
	if len(out.ops) == out.grow {
		return out
	}
	// Prefer the last quarter of the reduce phase: a shallow, sparse delta.
	reduceLen := len(out.ops) - out.grow
	lo := out.grow + 3*reduceLen/4
	idx := lo + rng.Intn(len(out.ops)-lo)
	out.ops[idx] = (out.ops[idx] + 1 + rng.Intn(5)) % 6
	return out
}

// pickSubset chooses k distinct indices from [0,n).
func pickSubset(rng *rand.Rand, n, k int) []int {
	perm := rng.Perm(n)
	sub := append([]int(nil), perm[:k]...)
	return sub
}

func gather(sigs []circuit.Signal, idx []int) []circuit.Signal {
	out := make([]circuit.Signal, len(idx))
	for i, j := range idx {
		out[i] = sigs[j]
	}
	return out
}

// ecoCase builds an ECO-style case: nPO independent patch cones over
// letter-named singles, with per-output support in [supLo, supHi].
func ecoCase(seed int64, nPI, nPO, supLo, supHi int, xorWeight float64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New()
	ins := addSingles(c, nPI, 0)
	for po := 0; po < nPO; po++ {
		sup := supLo + rng.Intn(supHi-supLo+1)
		subset := gather(ins, pickSubset(rng, nPI, sup))
		spec := newConeSpec(rng, sup, 2*sup+rng.Intn(sup+1), xorWeight)
		c.AddPO(fmt.Sprintf("po_%s", singleName(po)), spec.build(c, subset))
	}
	return c
}

// neqCase builds a NEQ-style case: each output is a miter XOR of a cone and
// its mutated copy over the same support.
func neqCase(seed int64, nPI, nPO, supLo, supHi int, xorWeight float64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New()
	ins := addSingles(c, nPI, 0)
	for po := 0; po < nPO; po++ {
		sup := supLo + rng.Intn(supHi-supLo+1)
		subset := gather(ins, pickSubset(rng, nPI, sup))
		spec := newConeSpec(rng, sup, 2*sup+rng.Intn(sup+1), xorWeight)
		fa := spec.build(c, subset)
		// Retry mutations until the two cones demonstrably disagree
		// somewhere: a miter of equivalent cones would be constant 0 and
		// teach nothing about non-equivalence diagnosis.
		var miter circuit.Signal
		for try := 0; ; try++ {
			fb := spec.mutate(rng).build(c, subset)
			miter = c.Xor(fa, fb)
			if try >= 20 || signalVaries(c, miter, rng) {
				break
			}
		}
		c.AddPO(fmt.Sprintf("miter_%s", singleName(po)), miter)
	}
	return c
}

// signalVaries samples the signal and reports whether it takes value 1
// anywhere (a miter that never fires is a failed mutation).
func signalVaries(c *circuit.Circuit, s circuit.Signal, rng *rand.Rand) bool {
	in := make([]uint64, c.NumPI())
	for round := 0; round < 8; round++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		if c.EvalSignalWords(in, s)[0] != 0 {
			return true
		}
	}
	return false
}

// ---- the 20 cases ----

func case1() *Case {
	return &Case{
		Name: "case_1", Type: ECO,
		Circuit: ecoCase(101, 121, 38, 4, 7, 0.15),
		Paper:   PaperRow{Size: 165, Accuracy: 100, Time: 35},
	}
}

func case2() *Case {
	// DATA: z(19) = 3a + 2b + c + 5 (mod 2^19) over 17-bit buses + 2
	// spare controls.
	c := circuit.New()
	a := c.AddPIWord("opa", 17)
	b := c.AddPIWord("opb", 17)
	d := c.AddPIWord("opc", 17)
	c.AddPI("net_en")
	c.AddPI("net_md")
	const w = 19
	sum := c.AddWords(
		c.AddWords(c.MulConst(a, 3, w), c.MulConst(b, 2, w)),
		c.AddWords(c.ZeroExtend(d, w), c.ConstWord(5, w)),
	)
	c.AddPOWord("res", sum)
	return &Case{
		Name: "case_2", Type: DATA, Circuit: c,
		Paper: PaperRow{Size: 186, Accuracy: 100, Time: 11},
	}
}

func case3() *Case {
	// DIAG: one comparator over two 32-bit buses; 8 spare controls.
	c := circuit.New()
	a := c.AddPIWord("addr", 32)
	b := c.AddPIWord("limit", 32)
	addSingles(c, 8, 0)
	c.AddPO("oob", c.LtWords(a, b))
	return &Case{
		Name: "case_3", Type: DIAG, Circuit: c,
		Paper: PaperRow{Size: 71, Accuracy: 100, Time: 14},
	}
}

func case4() *Case {
	return &Case{
		Name: "case_4", Type: ECO,
		Circuit: ecoCase(104, 56, 5, 12, 16, 0.3),
		Paper:   PaperRow{Size: 173, Accuracy: 100, Time: 229},
	}
}

func case5() *Case {
	return &Case{
		Name: "case_5", Type: NEQ,
		Circuit: neqCase(105, 87, 16, 10, 15, 0.35),
		Paper:   PaperRow{Size: 1436, Accuracy: 99.833, Time: 2578},
	}
}

func case6() *Case {
	// DIAG: equality of two 30-bit buses; 16 spare controls.
	c := circuit.New()
	a := c.AddPIWord("busa", 30)
	b := c.AddPIWord("busb", 30)
	addSingles(c, 16, 0)
	c.AddPO("match", c.EqWords(a, b))
	return &Case{
		Name: "case_6", Type: DIAG, Circuit: c,
		Paper: PaperRow{Size: 93, Accuracy: 100, Time: 16},
	}
}

func case7() *Case {
	return &Case{
		Name: "case_7", Type: ECO,
		Circuit: ecoCase(107, 43, 7, 3, 6, 0.1),
		Paper:   PaperRow{Size: 40, Accuracy: 100, Time: 5},
	}
}

func case8() *Case {
	// DIAG: five predicates over three 12-bit buses + 8 controls.
	c := circuit.New()
	a := c.AddPIWord("cnt", 12)
	b := c.AddPIWord("cap", 12)
	d := c.AddPIWord("ref", 12)
	addSingles(c, 8, 0)
	c.AddPO("full", c.EqWords(a, b))
	c.AddPO("under", c.LtWords(a, d))
	c.AddPO("over", c.GeWords(b, d))
	c.AddPO("ne", c.NeWords(a, d))
	c.AddPO("zero", c.EqConst(a, 0))
	return &Case{
		Name: "case_8", Type: DIAG, Circuit: c,
		Paper: PaperRow{Size: 63, Accuracy: 100, Time: 7},
	}
}

func case9() *Case {
	// The case nobody solved: very wide parity-rich cones.
	return &Case{
		Name: "case_9", Type: ECO,
		Circuit: neqCase(109, 173, 16, 30, 42, 0.85),
		Paper:   PaperRow{Failed: true},
		Hard:    true,
	}
}

func case10() *Case {
	return &Case{
		Name: "case_10", Type: NEQ,
		Circuit: neqCase(110, 37, 2, 6, 9, 0.2),
		Paper:   PaperRow{Size: 23, Accuracy: 100, Time: 6},
	}
}

func case11() *Case {
	return &Case{
		Name: "case_11", Type: NEQ, Hidden: true,
		Circuit: neqCase(111, 60, 20, 11, 16, 0.4),
		Paper:   PaperRow{Size: 1928, Accuracy: 99.640, Time: 2657},
	}
}

func case12() *Case {
	// DATA: two 13-bit linear outputs over two 20-bit buses.
	c := circuit.New()
	a := c.AddPIWord("mul", 20)
	b := c.AddPIWord("add", 20)
	const w = 13
	c.AddPOWord("lo", c.AddWords(c.ZeroExtend(a, w), c.AddWords(c.MulConst(b, 2, w), c.ConstWord(3, w))))
	c.AddPOWord("hi", c.AddWords(c.MulConst(a, 5, w), c.AddWords(c.ZeroExtend(b, w), c.ConstWord(9, w))))
	return &Case{
		Name: "case_12", Type: DATA, Hidden: true, Circuit: c,
		Paper: PaperRow{Size: 79, Accuracy: 100, Time: 9},
	}
}

func case13() *Case {
	return &Case{
		Name: "case_13", Type: ECO, Hidden: true,
		Circuit: ecoCase(113, 43, 7, 3, 5, 0.1),
		Paper:   PaperRow{Size: 27, Accuracy: 100, Time: 5},
	}
}

func case14() *Case {
	// Hard hidden NEQ: wide, parity-dominated miters (paper: 28.194%).
	return &Case{
		Name: "case_14", Type: NEQ, Hidden: true,
		Circuit: neqCase(114, 50, 22, 30, 40, 0.9),
		Paper:   PaperRow{Size: 11207, Accuracy: 28.194, Time: 2689},
		Hard:    true,
	}
}

func case15() *Case {
	// DIAG: three predicates over three 24-bit buses + 8 controls.
	c := circuit.New()
	a := c.AddPIWord("vala", 24)
	b := c.AddPIWord("valb", 24)
	d := c.AddPIWord("valc", 24)
	addSingles(c, 8, 0)
	c.AddPO("lt", c.LtWords(a, b))
	c.AddPO("eq", c.EqWords(b, d))
	c.AddPO("thr", c.GeWords(a, c.ConstWord(3_000_000, 24)))
	return &Case{
		Name: "case_15", Type: DIAG, Hidden: true, Circuit: c,
		Paper: PaperRow{Size: 129, Accuracy: 99.999, Time: 19},
	}
}

func case16() *Case {
	// DIAG: four predicates over two 10-bit buses + 6 controls.
	c := circuit.New()
	a := c.AddPIWord("ptr", 10)
	b := c.AddPIWord("lim", 10)
	addSingles(c, 6, 0)
	c.AddPO("eq", c.EqWords(a, b))
	c.AddPO("ne", c.NeWords(a, b))
	c.AddPO("lt", c.LtWords(a, b))
	c.AddPO("wrap", c.EqConst(a, 1023))
	return &Case{
		Name: "case_16", Type: DIAG, Hidden: true, Circuit: c,
		Paper: PaperRow{Size: 22, Accuracy: 100, Time: 2},
	}
}

func case17() *Case {
	return &Case{
		Name: "case_17", Type: ECO, Hidden: true,
		Circuit: ecoCase(117, 76, 33, 8, 14, 0.35),
		Paper:   PaperRow{Size: 2598, Accuracy: 99.989, Time: 1983},
	}
}

func case18() *Case {
	// Hard hidden NEQ: two very wide miters (paper: 59.757%).
	return &Case{
		Name: "case_18", Type: NEQ, Hidden: true,
		Circuit: neqCase(118, 102, 2, 40, 55, 0.9),
		Paper:   PaperRow{Size: 3391, Accuracy: 59.757, Time: 2674},
		Hard:    true,
	}
}

func case19() *Case {
	return &Case{
		Name: "case_19", Type: ECO, Hidden: true,
		Circuit: ecoCase(119, 73, 8, 13, 17, 0.45),
		Paper:   PaperRow{Size: 2991, Accuracy: 99.956, Time: 1764},
	}
}

func case20() *Case {
	// DIAG: two predicates over one 24-bit bus and one 24-bit reference.
	c := circuit.New()
	a := c.AddPIWord("code", 24)
	b := c.AddPIWord("mask", 24)
	addSingles(c, 3, 0)
	c.AddPO("hit", c.EqWords(a, b))
	c.AddPO("low", c.LtWords(a, b))
	return &Case{
		Name: "case_20", Type: DIAG, Hidden: true, Circuit: c,
		Paper: PaperRow{Size: 74, Accuracy: 100, Time: 10},
	}
}
