package sat

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestSearchIdentity pins the solver's search call by call. Every
// decision, conflict and model of the scenarios in identityRows must stay
// as recorded in searchRows, so a change to how the solver finds its next
// decision (or to its bookkeeping) cannot change a FRAIG proof or a
// counterexample, and with them a learned netlist. The table was recorded
// from the solver that scanned every variable for each decision.
func TestSearchIdentity(t *testing.T) {
	got := identityRows(t)
	if len(got) != len(searchRows) {
		t.Fatalf("%d Solve calls, want %d", len(got), len(searchRows))
	}
	for i, want := range searchRows {
		if got[i] != want {
			t.Fatalf("call %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

func TestRescaleKeepsDecisionOrder(t *testing.T) {
	// Seven free variables enter the heap in index order, which leaves it
	// laid out as the indices: 1e-200 at the root's left child, with the
	// two smallest below it and 8e99 and 7e99 below 9e99. A bump past 1e100
	// scales every activity by 1e-100: 1e-250 and 1e-260 round to zero,
	// and their variables move to zero. The heap of the other five must
	// be rebuilt around the gap, or 8e99 would sit below 1e-200.
	s := New()
	for _, a := range []float64{1e100, 1e-200, 9e99, 1e-250, 1e-260, 8e99, 7e99} {
		v := s.NewVar()
		s.activity[v] = a
		s.release(v)
	}
	s.varInc = 1e100
	s.bumpVar(0)
	checkDecisionOrder(t, s)
	for _, want := range []int{0, 2, 5, 6, 1, 3, 4} {
		l, ok := s.pickBranch()
		if !ok || l.Var() != want {
			t.Fatalf("picked %v (ok %v), want x%d", l, ok, want)
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, -1)
	}
}

// searchRow is what one Solve call leaves behind: its verdict, the
// solver's cumulative search counters and, after a Sat answer, a hash of
// the model taken in trail order, so that it also fixes the order in which
// the variables were assigned.
type searchRow struct {
	status                             Status
	conflicts, decisions, propagations int64
	model                              uint64
}

// solveRow runs one Solve call under a budget of its own conflicts
// (0 = none), checks the decision order it leaves and records the call.
// MaxConflicts counts the solver's conflicts since New, so the call's
// budget starts from the count so far.
func solveRow(t *testing.T, s *Solver, budget int64, assumptions ...Lit) searchRow {
	if budget > 0 {
		c, _, _ := s.Stats()
		budget += c
	}
	s.MaxConflicts = budget
	st := s.Solve(assumptions...)
	s.MaxConflicts = 0
	checkDecisionOrder(t, s)
	c, d, p := s.Stats()
	row := searchRow{status: st, conflicts: c, decisions: d, propagations: p}
	if st == Sat {
		h := fnv.New64a()
		for _, l := range s.trail {
			h.Write([]byte{byte(l), byte(l >> 8), byte(l >> 16), byte(l >> 24)})
		}
		row.model = h.Sum64()
	}
	return row
}

// checkDecisionOrder checks what pickBranch relies on: the heap is in
// decision order with a true position index, every unassigned variable
// with a positive activity is in it and counted in free, and every other
// unassigned variable is a bit of zero at or above zeroLow.
func checkDecisionOrder(t *testing.T, s *Solver) {
	t.Helper()
	for i, v := range s.order {
		if s.heapPos[v] != i {
			t.Fatalf("variable %d at heap index %d has heapPos %d", v, i, s.heapPos[v])
		}
		if p := s.order[(i-1)/2]; i > 0 && s.before(v, p) {
			t.Fatalf("heap index %d: variable %d (activity %g) sits below %d (activity %g)", i, v, s.activity[v], p, s.activity[p])
		}
	}
	free := 0
	for v, a := range s.assign {
		switch {
		case a != lUndef:
		case s.activity[v] > 0:
			free++
			if s.heapPos[v] < 0 {
				t.Fatalf("unassigned variable %d with activity %g is not in the heap", v, s.activity[v])
			}
		case s.zero[v/64]>>(v%64)&1 == 0 || v/64 < s.zeroLow:
			t.Fatalf("unassigned variable %d with activity 0 is not in zero", v)
		}
	}
	if free != s.free {
		t.Fatalf("%d unassigned variables with a positive activity, free says %d", free, s.free)
	}
}

// random3SAT adds m random 3-clauses over n fresh variables; it reports
// false when a clause made the formula unsatisfiable at level 0.
func random3SAT(s *Solver, rng *rand.Rand, n, m int) bool {
	for v := 0; v < n; v++ {
		s.NewVar()
	}
	for c := 0; c < m; c++ {
		if !s.AddClause(
			MkLit(rng.Intn(n), rng.Intn(2) == 1),
			MkLit(rng.Intn(n), rng.Intn(2) == 1),
			MkLit(rng.Intn(n), rng.Intn(2) == 1),
		) {
			return false
		}
	}
	return true
}

// pigeonhole adds PHP(pigeons, holes) over fresh variables; with sel >= 0
// every clause also holds ~sel, so the instance binds only under the
// assumption sel.
func pigeonhole(s *Solver, pigeons, holes, sel int) {
	guard := func(lits ...Lit) {
		if sel >= 0 {
			lits = append(lits, MkLit(sel, true))
		}
		s.AddClause(lits...)
	}
	v := make([][]int, pigeons)
	for p := range v {
		v[p] = make([]int, holes)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := range lits {
			lits[h] = MkLit(v[p][h], false)
		}
		guard(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				guard(MkLit(v[p1][h], true), MkLit(v[p2][h], true))
			}
		}
	}
}

// andGate adds a fresh variable o with o <-> a AND b, as aig.ToCNF encodes
// an AND node, and returns o's positive literal.
func andGate(s *Solver, a, b Lit) Lit {
	o := MkLit(s.NewVar(), false)
	s.AddClause(o.Not(), a)
	s.AddClause(o.Not(), b)
	s.AddClause(o, a.Not(), b.Not())
	return o
}

// xorChain returns the parity of lits, folded left to right out of ANDs.
func xorChain(s *Solver, lits []Lit) Lit {
	x := lits[0]
	for _, l := range lits[1:] {
		x = andGate(s, andGate(s, x, l.Not()).Not(), andGate(s, x.Not(), l).Not()).Not()
	}
	return x
}

// andNetwork encodes a random network of nAnd AND gates over nIn inputs
// and returns one variable per node, inputs first. Every fourth gate ANDs
// two earlier gates' complements, so the network holds ORs and
// reconvergence.
func andNetwork(s *Solver, rng *rand.Rand, nIn, nAnd int) []int {
	nodes := make([]int, 0, nIn+nAnd)
	for i := 0; i < nIn; i++ {
		nodes = append(nodes, s.NewVar())
	}
	for g := 0; g < nAnd; g++ {
		a := MkLit(nodes[rng.Intn(len(nodes))], rng.Intn(2) == 1)
		b := MkLit(nodes[rng.Intn(len(nodes))], rng.Intn(2) == 1)
		if g%4 == 3 && len(nodes) > nIn+1 {
			a = MkLit(nodes[nIn+rng.Intn(len(nodes)-nIn)], true)
			b = MkLit(nodes[nIn+rng.Intn(len(nodes)-nIn)], true)
		}
		nodes = append(nodes, andGate(s, a, b).Var())
	}
	return nodes
}

// identityRows runs every search-identity scenario and returns one row per
// Solve call, in order.
func identityRows(t *testing.T) []searchRow {
	var rows []searchRow
	// Random 3-SAT near the threshold (4.26 clauses per variable).
	for i, n := range []int{30, 40, 50, 60, 70, 80, 90, 100} {
		for seed := int64(1); seed <= 3; seed++ {
			s := New()
			rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
			if random3SAT(s, rng, n, n*426/100) {
				rows = append(rows, solveRow(t, s, 0))
			}
		}
	}
	// Pigeonhole: PHP(h+1, h) is unsatisfiable, PHP(h, h) satisfiable.
	for h := 3; h <= 6; h++ {
		s := New()
		pigeonhole(s, h+1, h, -1)
		rows = append(rows, solveRow(t, s, 0))
		s = New()
		pigeonhole(s, h, h, -1)
		rows = append(rows, solveRow(t, s, 0))
	}
	// Two PHP(6, 5) copies behind selector literals on one solver, each
	// asked under its selector with a budget of 200 conflicts per call.
	{
		s := New()
		sel1, sel2 := s.NewVar(), s.NewVar()
		pigeonhole(s, 6, 5, sel1)
		pigeonhole(s, 6, 5, sel2)
		rows = append(rows, solveRow(t, s, 200, MkLit(sel1, false)))
		rows = append(rows, solveRow(t, s, 200, MkLit(sel2, false)))
		rows = append(rows, solveRow(t, s, 0, MkLit(sel1, true), MkLit(sel2, true)))
	}
	// PHP(7, 6) over a budget, then to the end.
	{
		s := New()
		pigeonhole(s, 7, 6, -1)
		rows = append(rows, solveRow(t, s, 50))
		rows = append(rows, solveRow(t, s, 0))
	}
	// FRAIG-style sequences: one solver per network, and for each node
	// pair the two assumption calls of aig.CNF.ProveEqual, each under a
	// small per-call budget so that some proofs give up.
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		nIn := 8 + int(seed)*2
		nodes := andNetwork(s, rng, nIn, 150*int(seed))
		// Two parity chains over the same inputs in opposite orders: an
		// equivalence that takes many conflicts to prove.
		ins := make([]Lit, nIn)
		for i := range ins {
			ins[i] = MkLit(nodes[i], false)
		}
		fwd := xorChain(s, ins)
		for i, j := 0, len(ins)-1; i < j; i, j = i+1, j-1 {
			ins[i], ins[j] = ins[j], ins[i]
		}
		rev := xorChain(s, ins)
		budgets := []int64{0, 3, 10, 30, 1000}
		for q := 0; q < 40; q++ {
			a := MkLit(nodes[rng.Intn(len(nodes))], false)
			b := MkLit(nodes[rng.Intn(len(nodes))], rng.Intn(2) == 1)
			budget := budgets[q%len(budgets)]
			if q%8 == 5 {
				a, b = fwd, rev
				budget = budgets[1+q/8%3]
			}
			r1 := solveRow(t, s, budget, a, b.Not())
			rows = append(rows, r1)
			if r1.status != Sat {
				rows = append(rows, solveRow(t, s, budget, a.Not(), b))
			}
		}
	}
	// A large starting activity increment makes the 1e-100 rescale fire
	// within a few conflicts, several times over. On the network the
	// increment starts large again at every call, so the activities of
	// earlier calls underflow to zero and tie with untouched variables,
	// which are then decided by index.
	for i, inc := range []float64{1e95, 1e150, 1e250, 1e300} {
		for seed := int64(1); seed <= 3; seed++ {
			s := New()
			s.varInc = inc
			rng := rand.New(rand.NewSource(seed*77 + int64(i)))
			if random3SAT(s, rng, 60, 256) {
				rows = append(rows, solveRow(t, s, 0))
			}
		}
		s := New()
		s.varInc = inc
		pigeonhole(s, 6, 5, -1)
		rows = append(rows, solveRow(t, s, 0))
		s = New()
		s.varInc = inc
		rng := rand.New(rand.NewSource(int64(i) + 11))
		nodes := andNetwork(s, rng, 12, 400)
		for q := 0; q < 40; q++ {
			a := MkLit(nodes[rng.Intn(len(nodes))], false)
			b := MkLit(nodes[rng.Intn(len(nodes))], rng.Intn(2) == 1)
			s.varInc = inc
			rows = append(rows, solveRow(t, s, 50, a, b.Not()))
		}
	}
	return rows
}

// searchRows is identityRows' record: status, cumulative conflicts,
// decisions and propagations, model hash.
var searchRows = []searchRow{
	{Unsat, 11, 11, 82, 0x0000000000000000},
	{Sat, 2, 9, 54, 0xb5de1adf10434096},
	{Unsat, 11, 12, 106, 0x0000000000000000},
	{Unsat, 29, 31, 390, 0x0000000000000000},
	{Unsat, 24, 26, 280, 0x0000000000000000},
	{Sat, 19, 25, 312, 0x11a3e570f0d79db5},
	{Sat, 27, 40, 423, 0x567ed22eb066a027},
	{Unsat, 45, 54, 731, 0x0000000000000000},
	{Unsat, 42, 43, 735, 0x0000000000000000},
	{Unsat, 43, 48, 695, 0x0000000000000000},
	{Sat, 14, 33, 269, 0xf8506b885d79a855},
	{Sat, 46, 65, 866, 0x090d4f415cefcfc5},
	{Unsat, 84, 103, 1548, 0x0000000000000000},
	{Unsat, 108, 117, 2159, 0x0000000000000000},
	{Sat, 89, 114, 1562, 0x19e34195ba5fdcb6},
	{Sat, 1, 20, 123, 0x5717a91e63845e14},
	{Sat, 27, 44, 560, 0xfc1d97404d21a935},
	{Sat, 83, 108, 1810, 0xf86b94ba0779e704},
	{Unsat, 224, 262, 4673, 0x0000000000000000},
	{Unsat, 182, 218, 3977, 0x0000000000000000},
	{Unsat, 323, 398, 6699, 0x0000000000000000},
	{Unsat, 433, 520, 10685, 0x0000000000000000},
	{Sat, 395, 511, 9674, 0xa958cd164bd67345},
	{Unsat, 194, 237, 4248, 0x0000000000000000},
	{Unsat, 6, 9, 55, 0x0000000000000000},
	{Sat, 0, 3, 9, 0x7641dac44f7f10c5},
	{Unsat, 26, 37, 293, 0x0000000000000000},
	{Sat, 0, 6, 16, 0x89a7b2a506463e05},
	{Unsat, 141, 178, 1691, 0x0000000000000000},
	{Sat, 0, 10, 25, 0xfb530c0307781725},
	{Unsat, 813, 1003, 11182, 0x0000000000000000},
	{Sat, 0, 15, 36, 0xda6d60e4f0416da5},
	{Unsat, 140, 174, 1634, 0x0000000000000000},
	{Unsat, 286, 425, 3528, 0x0000000000000000},
	{Sat, 286, 485, 3589, 0xbb3aaafa3d9cdd07},
	{Unknown, 50, 84, 598, 0x0000000000000000},
	{Unsat, 980, 1241, 12888, 0x0000000000000000},
	{Sat, 0, 7, 214, 0x77fb06cd98ac0842},
	{Unsat, 0, 7, 302, 0x0000000000000000},
	{Sat, 0, 16, 516, 0xa45f1fb5a2a89bc2},
	{Sat, 0, 20, 730, 0x84148799ad22525b},
	{Unsat, 0, 20, 739, 0x0000000000000000},
	{Unsat, 1, 20, 769, 0x0000000000000000},
	{Unsat, 1, 20, 827, 0x0000000000000000},
	{Sat, 1, 29, 1041, 0x828255d8d45f9f8f},
	{Unknown, 4, 39, 1294, 0x0000000000000000},
	{Unknown, 7, 49, 1495, 0x0000000000000000},
	{Sat, 7, 54, 1709, 0x48e5c553f6af515e},
	{Unsat, 8, 54, 1714, 0x0000000000000000},
	{Unsat, 9, 54, 1728, 0x0000000000000000},
	{Sat, 9, 62, 1942, 0x3303690450b7177a},
	{Unsat, 10, 62, 1945, 0x0000000000000000},
	{Sat, 10, 72, 2159, 0xdc6d7c6b9896f86a},
	{Sat, 10, 78, 2373, 0x38332502d75cf4ab},
	{Sat, 11, 91, 2628, 0x185936b21b009587},
	{Sat, 12, 100, 2878, 0x2150db5d10e21466},
	{Unknown, 22, 119, 3371, 0x0000000000000000},
	{Unknown, 32, 137, 3892, 0x0000000000000000},
	{Sat, 40, 157, 4459, 0x06ec41c9efb970a7},
	{Sat, 40, 165, 4673, 0x304d787bbcbed496},
	{Unsat, 40, 165, 4763, 0x0000000000000000},
	{Sat, 40, 175, 4977, 0x57c1517f43429fd3},
	{Unsat, 40, 175, 5038, 0x0000000000000000},
	{Sat, 41, 185, 5280, 0xb3c5bf18fd306c76},
	{Sat, 41, 194, 5494, 0x3f2382f38dd9e6a2},
	{Sat, 41, 202, 5708, 0x8cac29fc83508782},
	{Sat, 41, 208, 5922, 0x77d4eeccb5fdbb9a},
	{Unknown, 71, 266, 7415, 0x0000000000000000},
	{Unknown, 101, 317, 8791, 0x0000000000000000},
	{Sat, 101, 324, 9005, 0x4b42eb1d8b5f6996},
	{Sat, 101, 333, 9219, 0x46e133889fd228aa},
	{Sat, 102, 348, 9559, 0x639eee9b1f36f4aa},
	{Unsat, 103, 348, 9600, 0x0000000000000000},
	{Sat, 103, 354, 9814, 0x73ca39a085edbfd2},
	{Sat, 103, 362, 10028, 0xd40f1bd65d2bfd37},
	{Sat, 103, 371, 10242, 0x00bf8a77ed7b1797},
	{Unsat, 104, 371, 10245, 0x0000000000000000},
	{Sat, 104, 381, 10459, 0x8c6a36b6a6816e43},
	{Unknown, 107, 388, 10569, 0x0000000000000000},
	{Unknown, 110, 392, 10712, 0x0000000000000000},
	{Sat, 110, 400, 10926, 0x30a004c84a3a2473},
	{Sat, 110, 407, 11140, 0x0219b8a61a70b353},
	{Sat, 110, 418, 11354, 0xd497d32fa9be9d97},
	{Sat, 111, 430, 11630, 0x4916589873846f8f},
	{Sat, 111, 436, 11844, 0x70a73916037c615b},
	{Sat, 111, 440, 12058, 0x41fd21248ecdf467},
	{Sat, 111, 448, 12272, 0xb2c52965e848dfd6},
	{Unsat, 115, 453, 12410, 0x0000000000000000},
	{Unsat, 117, 454, 12541, 0x0000000000000000},
	{Sat, 117, 463, 12755, 0x5c1659388ee0f3ca},
	{Sat, 117, 473, 12969, 0xcfc99f69a05da7aa},
	{Unsat, 0, 0, 223, 0x0000000000000000},
	{Sat, 0, 11, 601, 0xea7090ecf649456a},
	{Sat, 1, 16, 1104, 0x90dd0cb6e4f9866f},
	{Unsat, 1, 16, 1128, 0x0000000000000000},
	{Sat, 1, 23, 1505, 0x5b96307a2a04ada3},
	{Sat, 1, 33, 1882, 0xa368257ee22b37f6},
	{Sat, 1, 44, 2259, 0xe8de73662e61da8f},
	{Unknown, 4, 57, 2700, 0x0000000000000000},
	{Unknown, 7, 69, 3177, 0x0000000000000000},
	{Sat, 7, 80, 3554, 0xa858024c6b54b643},
	{Sat, 8, 90, 3945, 0xe35a30b02576088a},
	{Sat, 8, 101, 4322, 0xf400b9d9844be766},
	{Sat, 8, 111, 4699, 0x32d016c48936284b},
	{Sat, 8, 119, 5076, 0xd3eaa5ae30bd9d62},
	{Unsat, 9, 119, 5077, 0x0000000000000000},
	{Sat, 9, 131, 5454, 0xe3e614f95bd8c322},
	{Unsat, 10, 131, 5479, 0x0000000000000000},
	{Sat, 10, 140, 5856, 0x6c3ef2143b23e24f},
	{Unknown, 20, 158, 6526, 0x0000000000000000},
	{Unknown, 30, 177, 7513, 0x0000000000000000},
	{Sat, 31, 189, 7892, 0x1f73e42f22a10b8a},
	{Sat, 31, 202, 8269, 0x27cdbd47f500b082},
	{Sat, 31, 213, 8646, 0xe80333e0a080e03f},
	{Sat, 31, 222, 9023, 0x7f468f86c09ab17b},
	{Sat, 32, 236, 9428, 0x1e4967bca2adab2a},
	{Sat, 32, 246, 9805, 0xe498d0447ca46176},
	{Sat, 33, 254, 10234, 0x65b519f9f2563dcb},
	{Unknown, 63, 300, 12237, 0x0000000000000000},
	{Unknown, 93, 359, 14103, 0x0000000000000000},
	{Unsat, 94, 359, 14153, 0x0000000000000000},
	{Sat, 95, 373, 14591, 0xa50dd958c835709b},
	{Sat, 95, 381, 14968, 0xeaa624007ecc50a6},
	{Unsat, 96, 381, 15090, 0x0000000000000000},
	{Sat, 98, 405, 15751, 0x5533a724ca5ab7c6},
	{Sat, 98, 413, 16128, 0x857176941f0c8272},
	{Sat, 99, 431, 16590, 0xb1d29ebed168398b},
	{Sat, 99, 444, 16967, 0x9c83412efe0c2ed7},
	{Sat, 100, 469, 17590, 0xd3c07c8c0879c3fa},
	{Unknown, 103, 481, 17779, 0x0000000000000000},
	{Unknown, 106, 499, 18429, 0x0000000000000000},
	{Sat, 107, 515, 18894, 0x78b74865b050ca27},
	{Sat, 107, 527, 19271, 0x237d755e9fdd61bf},
	{Sat, 108, 543, 19815, 0x9d0f323e94f8389e},
	{Sat, 108, 552, 20192, 0x58d6993fc79ff4a6},
	{Sat, 109, 570, 20779, 0x8666d73a9431130f},
	{Sat, 109, 580, 21156, 0x8ebbad5df0b53f06},
	{Sat, 109, 587, 21533, 0xbd82e7fc560454c6},
	{Unknown, 119, 604, 22037, 0x0000000000000000},
	{Unknown, 129, 634, 22874, 0x0000000000000000},
	{Sat, 129, 641, 23251, 0xd8c0ab8441cf61ab},
	{Sat, 129, 653, 23628, 0x1b8da979120c0ec7},
	{Sat, 0, 9, 542, 0x20e45657a40e5d0b},
	{Sat, 0, 17, 1084, 0x80a216bec992e24a},
	{Unsat, 1, 17, 1118, 0x0000000000000000},
	{Sat, 1, 30, 1660, 0x89faecad702e9943},
	{Unsat, 2, 30, 1674, 0x0000000000000000},
	{Sat, 2, 38, 2216, 0x4ee1a573f03889e2},
	{Sat, 2, 52, 2758, 0x25503a6dd3169096},
	{Unknown, 5, 66, 3336, 0x0000000000000000},
	{Unknown, 8, 80, 3946, 0x0000000000000000},
	{Sat, 8, 94, 4488, 0x8a19bfdc15e1bffa},
	{Sat, 8, 101, 5030, 0xe9761b7df9a5bc7e},
	{Sat, 8, 112, 5572, 0x570f0166e0758446},
	{Sat, 8, 121, 6114, 0x800a316432b1d4cf},
	{Sat, 8, 132, 6656, 0x8ce888e24e7071eb},
	{Sat, 8, 143, 7198, 0x34ccfd8845106b7b},
	{Unsat, 9, 143, 7272, 0x0000000000000000},
	{Sat, 9, 155, 7814, 0x6a6990a5b4ffcfb3},
	{Unknown, 19, 177, 8741, 0x0000000000000000},
	{Unknown, 29, 198, 9888, 0x0000000000000000},
	{Sat, 33, 209, 10611, 0x9b7f6eb8fb39be0e},
	{Unsat, 34, 209, 10637, 0x0000000000000000},
	{Sat, 34, 221, 11179, 0xafeee8d6144cd2ff},
	{Sat, 34, 233, 11721, 0x7307bb29a3aacdae},
	{Sat, 34, 247, 12263, 0x019228f4f0bbb5be},
	{Sat, 34, 259, 12805, 0x50270c34421c02d7},
	{Sat, 34, 273, 13347, 0x03f885793711257f},
	{Sat, 35, 289, 14137, 0xf5c09e28daa553e2},
	{Unknown, 65, 328, 16977, 0x0000000000000000},
	{Unknown, 95, 387, 19640, 0x0000000000000000},
	{Sat, 97, 410, 20421, 0x65ad336f74964343},
	{Sat, 97, 421, 20963, 0xdb4b53dfeb2e483b},
	{Sat, 97, 435, 21505, 0x77f341b73332fd07},
	{Sat, 97, 447, 22047, 0xb15111c9d19afcaf},
	{Sat, 97, 459, 22589, 0x3a1f558f838e3222},
	{Sat, 97, 473, 23131, 0x7ce6106e408e23ba},
	{Sat, 97, 488, 23673, 0x48b9353c31a6385a},
	{Unknown, 100, 504, 24235, 0x0000000000000000},
	{Unknown, 103, 519, 24571, 0x0000000000000000},
	{Unsat, 104, 519, 24614, 0x0000000000000000},
	{Sat, 108, 547, 25576, 0x9eee6299eac08a67},
	{Unsat, 109, 547, 25581, 0x0000000000000000},
	{Sat, 109, 556, 26123, 0x3973005dac27850a},
	{Sat, 109, 567, 26665, 0xc04a4864f109584a},
	{Sat, 109, 577, 27207, 0xccf09d420fa6b72a},
	{Sat, 109, 587, 27749, 0x90bbb28de59cff17},
	{Sat, 109, 599, 28291, 0xfdbaf2465cd6c543},
	{Sat, 109, 611, 28833, 0x3c33d6c8ab30c796},
	{Unknown, 119, 634, 29786, 0x0000000000000000},
	{Unknown, 129, 665, 31031, 0x0000000000000000},
	{Unsat, 130, 665, 31034, 0x0000000000000000},
	{Sat, 133, 683, 31690, 0x574de5408ae75647},
	{Sat, 133, 695, 32232, 0x91a3260e6e196942},
	{Sat, 0, 8, 706, 0xd4f689c19bddc4b7},
	{Sat, 0, 21, 1412, 0x6b9d3c986b08ef8a},
	{Sat, 0, 36, 2118, 0x54da0cf9e030599e},
	{Sat, 0, 46, 2824, 0x1e8c4cb460ce60ff},
	{Sat, 0, 60, 3530, 0xa9eeaa2af5e2dc47},
	{Unknown, 3, 76, 4101, 0x0000000000000000},
	{Unknown, 6, 92, 4853, 0x0000000000000000},
	{Sat, 6, 101, 5559, 0xff488295754db8a3},
	{Sat, 6, 112, 6265, 0x396438fc0f940eaa},
	{Sat, 6, 128, 6971, 0x939fa0517698a292},
	{Unsat, 6, 128, 7279, 0x0000000000000000},
	{Sat, 6, 144, 7985, 0x0141c062eb830303},
	{Sat, 6, 158, 8691, 0x254289c2ff5a0f63},
	{Unsat, 7, 158, 8708, 0x0000000000000000},
	{Sat, 7, 173, 9414, 0x6ce20484ab4adaf6},
	{Sat, 9, 195, 10544, 0xbd8b32d775619437},
	{Unknown, 19, 215, 11645, 0x0000000000000000},
	{Unknown, 29, 237, 13053, 0x0000000000000000},
	{Sat, 33, 256, 14026, 0x78d9ed686991992a},
	{Sat, 33, 271, 14732, 0x22462590335c73cf},
	{Sat, 33, 287, 15438, 0x2c71cae2403bc566},
	{Sat, 33, 298, 16144, 0xe3492db3e280082f},
	{Sat, 33, 312, 16850, 0xf68c111e13f12f3b},
	{Sat, 33, 324, 17556, 0xe5945965f7bfc8ef},
	{Sat, 47, 354, 19411, 0x03dab3c67c5a93f6},
	{Unknown, 77, 411, 22681, 0x0000000000000000},
	{Unknown, 107, 489, 26699, 0x0000000000000000},
	{Unsat, 108, 489, 27024, 0x0000000000000000},
	{Unknown, 118, 524, 28321, 0x0000000000000000},
	{Sat, 118, 539, 29027, 0x4d0776c6c42733d3},
	{Sat, 118, 551, 29733, 0x16f29344ef3d8a02},
	{Sat, 118, 560, 30439, 0xc80cff94fc6404cb},
	{Sat, 118, 572, 31145, 0x663ca78977317e2a},
	{Sat, 118, 585, 31851, 0x14353b16df2313a7},
	{Sat, 118, 600, 32557, 0x83695eb3ba3565df},
	{Unknown, 121, 620, 33541, 0x0000000000000000},
	{Unknown, 124, 636, 34073, 0x0000000000000000},
	{Sat, 125, 647, 34995, 0xc9b84d10ea6c195a},
	{Sat, 125, 662, 35701, 0x0e7e1ca97e7472db},
	{Unsat, 126, 662, 35715, 0x0000000000000000},
	{Sat, 126, 678, 36421, 0x87025927df23a983},
	{Unsat, 127, 678, 36471, 0x0000000000000000},
	{Sat, 127, 695, 37177, 0x7b95b5975c2a6633},
	{Unsat, 128, 695, 37246, 0x0000000000000000},
	{Sat, 128, 712, 37952, 0x4d6489f29ca74e52},
	{Unsat, 129, 712, 37979, 0x0000000000000000},
	{Sat, 130, 737, 39003, 0x39f0584cceb0627e},
	{Sat, 130, 754, 39709, 0xd281ca92d9851af6},
	{Unknown, 140, 781, 40357, 0x0000000000000000},
	{Unknown, 150, 805, 41270, 0x0000000000000000},
	{Sat, 150, 815, 41976, 0x20526e335182b0a7},
	{Sat, 150, 827, 42682, 0x6bee340a43e47843},
	{Unsat, 39, 46, 616, 0x0000000000000000},
	{Unsat, 105, 121, 1728, 0x0000000000000000},
	{Sat, 86, 107, 1504, 0x3a71b1fce4ac4cb4},
	{Unsat, 141, 178, 1691, 0x0000000000000000},
	{Sat, 2, 10, 611, 0x45e956f030aa2aac},
	{Sat, 2, 20, 1018, 0xd79eb02eacd2fb28},
	{Sat, 2, 28, 1425, 0x812e87431acbe1bd},
	{Sat, 2, 41, 1832, 0x3cc75bf909f1d289},
	{Sat, 2, 45, 2239, 0xee89aa3d79c06d9c},
	{Unsat, 3, 45, 2281, 0x0000000000000000},
	{Sat, 3, 57, 2688, 0x77f8a10f2045d7e4},
	{Sat, 3, 65, 3095, 0x4740c35de9ba3419},
	{Sat, 3, 75, 3502, 0x6fff1b743d3389bd},
	{Sat, 3, 87, 3909, 0x3e748aa35f92a1c1},
	{Sat, 4, 98, 4336, 0xd8f5fafe8d4075f5},
	{Sat, 4, 110, 4743, 0x87d96ddfd603850d},
	{Sat, 4, 122, 5150, 0x25faa75e1a878ab1},
	{Unsat, 5, 122, 5162, 0x0000000000000000},
	{Sat, 5, 133, 5569, 0xe223acc238b4fb7d},
	{Sat, 5, 145, 5976, 0xcac8fd3b3ff66359},
	{Sat, 5, 152, 6383, 0xc8a5d5aaba602245},
	{Unsat, 5, 152, 6415, 0x0000000000000000},
	{Unsat, 6, 152, 6428, 0x0000000000000000},
	{Sat, 6, 160, 6835, 0x3af8fd0ed6d12879},
	{Unsat, 7, 160, 6915, 0x0000000000000000},
	{Sat, 7, 174, 7322, 0x4eab9bd8424a85c9},
	{Sat, 7, 182, 7729, 0x41ddc011d1b63dfd},
	{Sat, 7, 190, 8136, 0xac7cc1f01f725c28},
	{Sat, 7, 198, 8543, 0x39cdbfe014cf0a65},
	{Unsat, 8, 198, 8553, 0x0000000000000000},
	{Unsat, 9, 198, 8560, 0x0000000000000000},
	{Unsat, 9, 198, 8563, 0x0000000000000000},
	{Sat, 10, 210, 9002, 0x6620003270650d99},
	{Unsat, 11, 210, 9011, 0x0000000000000000},
	{Sat, 11, 218, 9418, 0x0538297610b1d610},
	{Sat, 11, 230, 9825, 0x81d1d2bedffcd058},
	{Sat, 11, 238, 10232, 0x31ccb7a495f1bd40},
	{Sat, 12, 247, 10655, 0xe6497b1aec7a4719},
	{Unsat, 13, 247, 10657, 0x0000000000000000},
	{Sat, 13, 258, 11064, 0xc98608d970116c79},
	{Sat, 13, 268, 11471, 0x764d7f1f39c84309},
	{Sat, 13, 278, 11878, 0x55d5a50acfaafdd8},
	{Sat, 13, 289, 12285, 0x336bd6dbbced85cc},
	{Sat, 13, 298, 12692, 0x739f534839aafec5},
	{Sat, 2, 10, 86, 0xcc0213988fdd6594},
	{Sat, 4, 13, 151, 0x27ceaa181058fdd4},
	{Unsat, 120, 138, 1881, 0x0000000000000000},
	{Unsat, 141, 178, 1691, 0x0000000000000000},
	{Sat, 0, 10, 412, 0x22fbdc0e217303c0},
	{Sat, 1, 21, 924, 0x7ff53dcca8d3dd9d},
	{Unsat, 2, 21, 960, 0x0000000000000000},
	{Sat, 3, 42, 1450, 0x9d0ea6a31cffe0f8},
	{Sat, 3, 52, 1856, 0xca9b14f3613520cd},
	{Sat, 3, 61, 2262, 0x8943134cd6fa4174},
	{Unsat, 4, 61, 2312, 0x0000000000000000},
	{Unsat, 6, 67, 2563, 0x0000000000000000},
	{Sat, 6, 73, 2969, 0x47715c33d4148011},
	{Sat, 6, 81, 3375, 0x9a11e36fe4e1683d},
	{Sat, 6, 90, 3781, 0x52d590ba28de4f90},
	{Unsat, 7, 90, 3830, 0x0000000000000000},
	{Sat, 7, 99, 4236, 0xf8497213b6a0bfc4},
	{Unsat, 8, 99, 4251, 0x0000000000000000},
	{Sat, 8, 112, 4657, 0x63589403edd254a0},
	{Unsat, 8, 112, 4829, 0x0000000000000000},
	{Sat, 8, 122, 5235, 0x97afcc93fee7bfd0},
	{Sat, 8, 133, 5641, 0x4d17471c60ad4450},
	{Sat, 8, 146, 6047, 0x79d1fa8083346efc},
	{Sat, 8, 156, 6453, 0x7ad2988ebc9cfee8},
	{Unsat, 9, 156, 6490, 0x0000000000000000},
	{Sat, 9, 165, 6896, 0x88e2426fbd930ac4},
	{Sat, 9, 174, 7302, 0x2c8567d8e60a3de5},
	{Sat, 9, 185, 7708, 0xfe3d7a11f67de9a5},
	{Sat, 9, 194, 8114, 0xdbc5a3c374d1aeb9},
	{Unsat, 10, 194, 8152, 0x0000000000000000},
	{Sat, 10, 204, 8558, 0xb2b7630199973fd5},
	{Sat, 10, 210, 8964, 0xb59f428b21cb9124},
	{Unsat, 11, 210, 9091, 0x0000000000000000},
	{Sat, 11, 218, 9497, 0xfaf10c8d9fefb4b0},
	{Sat, 12, 231, 9969, 0xc2082b793052b0c4},
	{Sat, 13, 236, 10470, 0xe73647f0e9547f21},
	{Unsat, 14, 236, 10478, 0x0000000000000000},
	{Sat, 14, 247, 10884, 0x1eac4f055e05ccfd},
	{Sat, 14, 257, 11290, 0x4dd51e1fe3831674},
	{Unsat, 15, 257, 11292, 0x0000000000000000},
	{Unsat, 16, 257, 11313, 0x0000000000000000},
	{Sat, 16, 267, 11719, 0x5ac605c34c9bec64},
	{Sat, 16, 272, 12125, 0x07caa98056b54730},
	{Sat, 16, 282, 12531, 0x5f3e60cda0918628},
	{Unsat, 103, 113, 1803, 0x0000000000000000},
	{Unsat, 83, 89, 1496, 0x0000000000000000},
	{Unsat, 55, 66, 853, 0x0000000000000000},
	{Unsat, 141, 178, 1691, 0x0000000000000000},
	{Unsat, 1, 0, 65, 0x0000000000000000},
	{Sat, 1, 11, 477, 0x5e69c2729e8eaf29},
	{Sat, 1, 19, 889, 0xb7d798831734b1a9},
	{Sat, 1, 26, 1301, 0xe77a1815d241a4fd},
	{Unsat, 2, 26, 1311, 0x0000000000000000},
	{Unsat, 3, 26, 1379, 0x0000000000000000},
	{Sat, 3, 34, 1791, 0x50eae714e3127624},
	{Sat, 6, 50, 2588, 0xca4abe7a6488b850},
	{Sat, 6, 57, 3000, 0x11e7091d1ddfbc6c},
	{Sat, 6, 68, 3412, 0xecc5116c3f3455f9},
	{Sat, 6, 75, 3824, 0x23efec02704c6a4c},
	{Sat, 6, 81, 4236, 0x3ca6f6f389c274a9},
	{Sat, 6, 90, 4648, 0xf612fd4b455c7ffd},
	{Unsat, 7, 90, 4669, 0x0000000000000000},
	{Sat, 7, 95, 5081, 0x97514f14604d63c8},
	{Sat, 7, 103, 5493, 0x1ca11471db2d5e78},
	{Sat, 7, 110, 5905, 0x6b3830e2285d04b8},
	{Sat, 7, 120, 6317, 0x340fc145f33f9640},
	{Sat, 7, 128, 6729, 0xd058f920ecef68a1},
	{Sat, 7, 138, 7141, 0x2d393229168395b8},
	{Unsat, 8, 138, 7160, 0x0000000000000000},
	{Sat, 9, 150, 7630, 0x661279ca7c9f1b24},
	{Sat, 9, 160, 8042, 0x29210226335f1428},
	{Sat, 9, 169, 8454, 0xaaf51ac559107f21},
	{Sat, 9, 178, 8866, 0x111d3775bc7455c1},
	{Sat, 10, 186, 9371, 0x5dfdd879460aae91},
	{Sat, 10, 195, 9783, 0xb3230a07f45aa911},
	{Sat, 10, 203, 10195, 0xaaace86859859b4d},
	{Sat, 12, 214, 10922, 0xe5cebd205e463c3c},
	{Unsat, 13, 214, 10932, 0x0000000000000000},
	{Sat, 13, 220, 11342, 0x8c35b0b8b4bbdfa4},
	{Sat, 13, 228, 11752, 0xe201eaa954054564},
	{Sat, 13, 237, 12162, 0xa174adce1842b990},
	{Sat, 13, 246, 12572, 0xe530253ae570b2ec},
	{Unsat, 14, 246, 12582, 0x0000000000000000},
	{Sat, 14, 258, 12992, 0xfb5c61bbbf8f7679},
	{Sat, 16, 268, 13615, 0x2b63c05d1060306d},
	{Sat, 16, 277, 14025, 0x74800603ca2b7f35},
	{Sat, 16, 288, 14435, 0xbdd24aa4dccc6f11},
	{Sat, 16, 297, 14845, 0x8ae1afd8bf2a1dd5},
	{Sat, 60, 89, 1022, 0x2a036edc40f99f75},
	{Sat, 55, 79, 905, 0x32a97a7cc40de865},
	{Unsat, 81, 90, 1049, 0x0000000000000000},
	{Unsat, 141, 178, 1691, 0x0000000000000000},
	{Sat, 0, 7, 412, 0x2f11f9979a6d39b1},
	{Sat, 1, 17, 934, 0xc2aca54646a7eef1},
	{Sat, 1, 26, 1346, 0xe97146d0567673c5},
	{Sat, 2, 36, 1799, 0xb66ddc977e7e6de8},
	{Sat, 2, 43, 2211, 0xa857b31022a0a1c1},
	{Sat, 2, 49, 2623, 0xf062bab37f568885},
	{Sat, 2, 59, 3035, 0xb970597867b04c74},
	{Sat, 2, 68, 3447, 0x6bdecb9eec80cdb5},
	{Sat, 5, 80, 4179, 0xd090c4a5de2bc914},
	{Unsat, 5, 80, 4303, 0x0000000000000000},
	{Sat, 5, 90, 4707, 0xed999701c3f758dc},
	{Unsat, 5, 90, 5072, 0x0000000000000000},
	{Sat, 5, 96, 5476, 0x2da5102fc94a72c4},
	{Sat, 5, 106, 5880, 0xd7f214b017680f98},
	{Unsat, 5, 106, 5880, 0x0000000000000000},
	{Unsat, 5, 106, 5883, 0x0000000000000000},
	{Sat, 5, 115, 6287, 0x6d73c7ad32f5f9c4},
	{Sat, 5, 126, 6691, 0xfc8fa0bf2a1e8265},
	{Sat, 5, 137, 7095, 0x2f376d7b0fa73a55},
	{Sat, 6, 147, 7628, 0x5a358c6659a18054},
	{Unsat, 7, 147, 7666, 0x0000000000000000},
	{Sat, 7, 151, 8070, 0x83488d4b1e68e3e4},
	{Sat, 8, 158, 8527, 0xad207d8fa82d7e0d},
	{Sat, 9, 165, 8986, 0x3aee84d550469d98},
	{Sat, 9, 173, 9390, 0xa2a0aaf21ef9bb11},
	{Sat, 9, 178, 9794, 0xde955153c708784c},
	{Sat, 9, 189, 10198, 0x81fc9a9016610ac0},
	{Sat, 9, 197, 10602, 0x1fe759ccc232858c},
	{Sat, 9, 206, 11006, 0xc41f61034814a520},
	{Unsat, 10, 206, 11007, 0x0000000000000000},
	{Sat, 10, 213, 11411, 0xbc7238c737125b99},
	{Sat, 10, 222, 11815, 0x5f0481d8da953c14},
	{Sat, 10, 225, 12219, 0x63087d184c4982b1},
	{Sat, 10, 231, 12623, 0x00e4220b5977eaa0},
	{Sat, 12, 238, 13110, 0x916f9963843eb2c8},
	{Unsat, 12, 238, 13195, 0x0000000000000000},
	{Sat, 12, 248, 13599, 0x011f9fb8d45a9d58},
	{Unsat, 12, 248, 13715, 0x0000000000000000},
	{Sat, 12, 256, 14119, 0xe68fdc9591bcba84},
	{Sat, 12, 267, 14523, 0xfa6eb5b4a0555ad9},
}
