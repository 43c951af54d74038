package ssa

// Differential-soundness fixtures. Each function is BOTH compiled into
// the test binary (and executed on randomized inputs) AND parsed from
// this file and analyzed with SCCP. The test in interp_test.go asserts
// that every proven constant equals the observed runtime value.
//
// Conventions the driver relies on:
//   - signature func(a, b int) []int;
//   - every return is `return []int{<sentinel literal>, ...}` where the
//     sentinel is a distinct int literal per return site, so the driver
//     can tell which return produced a given runtime result;
//   - the file stays self-contained (no imports, no references to other
//     declarations in this package) so it typechecks standalone.

func fixtureConst(a, b int) []int {
	x := 3
	y := x*4 + 1 // 13
	z := y << 2  // 52
	w := z ^ 7   // 51
	return []int{1, x, y, z, w}
}

func fixtureDeadBranch(a, b int) []int {
	x := 1
	y := 0
	if x == 1 {
		y = 2
	} else {
		y = 9
	}
	z := y * 3 // 6, through the pruned phi
	return []int{2, z}
}

func fixtureMask(a, b int) []int {
	k := a & 63 // [0, 63]
	s := 0
	for i := 0; i < k; i++ {
		s += i // non-negative, not a constant
	}
	m := b
	if a > 10 {
		m = k
	}
	return []int{3, k, s, m}
}

func fixtureClamp(a, b int) []int {
	if a < 0 || a > 62 {
		return []int{4, 0, 0}
	}
	m := 1 << uint(a) // refined: a in [0, 62] here
	return []int{5, m, a}
}

func fixtureModDivConv(a, b int) []int {
	m := a % 7 // (-7, 7)
	u := uint8(a)
	d := 0
	if b >= 1 {
		d = (a & 1023) / b // [0, 1023]
	}
	return []int{6, m, int(u), d}
}

func fixtureCompound(a, b int) []int {
	x := a & 15 // [0, 15]
	x += 3      // [3, 18]
	x *= 2      // [6, 36]
	x++         // [7, 37]
	y := x >> 1 // [3, 18]
	return []int{7, x, y}
}

func fixtureRangeLoop(a, b int) []int {
	xs := []int{a, b, a + b, a - b}
	s := 0
	n := 0
	for i := range xs {
		s += i // 0+1+2+3 = 6, but SCCP claims no constant through a loop
		n++
	}
	t := 0
	for _, v := range xs {
		if v > 0 {
			t++ // [0, unbounded) — counts positives
		}
	}
	return []int{8, s, n, t}
}

func fixtureNestedGuards(a, b int) []int {
	if a < 0 {
		return []int{9, 0}
	}
	// a >= 0 here.
	w := a % 64 // [0, 63]
	if b >= 0 && b < w {
		// b in [0, 62] (w <= 63 so b <= 62).
		return []int{10, b + 1} // [1, 63]
	}
	return []int{11, w}
}

var fixtureRegistry = map[string]func(a, b int) []int{
	"fixtureConst":        fixtureConst,
	"fixtureDeadBranch":   fixtureDeadBranch,
	"fixtureMask":         fixtureMask,
	"fixtureClamp":        fixtureClamp,
	"fixtureModDivConv":   fixtureModDivConv,
	"fixtureCompound":     fixtureCompound,
	"fixtureRangeLoop":    fixtureRangeLoop,
	"fixtureNestedGuards": fixtureNestedGuards,
}
