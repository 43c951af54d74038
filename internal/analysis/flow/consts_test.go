package flow

import (
	"go/ast"
	"go/constant"
	"testing"
)

// constAt folds e just before node n of block b, replaying the block's
// transfer from its solved in-state.
func (c *Consts) constAt(b *Block, n ast.Node, e ast.Expr) (constant.Value, bool) {
	if !c.Reachable(b) {
		return nil, false
	}
	s := append(constState{}, c.In[b]...)
	for _, m := range b.Nodes {
		if m == n {
			break
		}
		c.lat.transferNode(m, s)
	}
	v := c.lat.eval(e, s)
	return v.val, v.val != nil
}

func solveFunc(t *testing.T, src, name string) *Consts {
	t.Helper()
	_, fd, info := parseFunc(t, src, name)
	c := SolveConsts(fd, info)
	if !c.Converged {
		t.Fatalf("%s: solver did not converge", name)
	}
	return c
}

func constAtReturn(t *testing.T, src string) (int64, bool) {
	t.Helper()
	c := solveFunc(t, src, "f")
	// The function's final return.
	var blk *Block
	var ret *ast.ReturnStmt
	for _, b := range c.CFG.Blocks {
		for _, n := range b.Nodes {
			if r, ok := n.(*ast.ReturnStmt); ok && (ret == nil || r.Pos() > ret.Pos()) {
				blk, ret = b, r
			}
		}
	}
	if ret == nil || len(ret.Results) != 1 {
		t.Fatal("fixture needs a single-result return")
	}
	v, ok := c.constAt(blk, ret, ret.Results[0])
	if !ok {
		return 0, false
	}
	i, exact := constant.Int64Val(constant.ToInt(v))
	return i, exact
}

// condBlocks lists the two-way condition blocks of a solved function.
func condBlocks(c *Consts) []*Block {
	var out []*Block
	for _, b := range c.CFG.Blocks {
		if b.Cond != nil {
			out = append(out, b)
		}
	}
	return out
}

func TestConstStraightLine(t *testing.T) {
	got, ok := constAtReturn(t, `package x
func f() int {
	a := 3
	b := a*4 + 1
	c := b << 2
	return c - 2
}
`)
	if !ok || got != 50 {
		t.Errorf("got %d (ok=%v), want 50", got, ok)
	}
}

func TestConstSameConstBothArms(t *testing.T) {
	got, ok := constAtReturn(t, `package x
func f(cond bool) int {
	c := 0
	if cond {
		c = 5
	} else {
		c = 5
	}
	return c
}
`)
	if !ok || got != 5 {
		t.Errorf("join of equal constants: got %d (ok=%v), want 5", got, ok)
	}
}

func TestConstBranchPruning(t *testing.T) {
	// The else arm assigns 9, but the condition is proven true, so the
	// else edge never runs and the join sees only 2.
	got, ok := constAtReturn(t, `package x
func f() int {
	x := 1
	y := 0
	if x == 1 {
		y = 2
	} else {
		y = 9
	}
	return y
}
`)
	if !ok || got != 2 {
		t.Errorf("pruned join: got %d (ok=%v), want 2", got, ok)
	}
}

func TestConstLoopVarNotConst(t *testing.T) {
	if _, ok := constAtReturn(t, `package x
func f() int {
	s := 0
	for i := 0; i < 10; i++ {
		s += i
	}
	return s
}
`); ok {
		t.Error("loop accumulator must not fold to a constant")
	}
}

func TestConstParamNotConst(t *testing.T) {
	if _, ok := constAtReturn(t, `package x
func f(n int) int {
	return n + 1
}
`); ok {
		t.Error("parameter-derived value must not fold")
	}
}

func TestConstBranchConstAndReachability(t *testing.T) {
	c := solveFunc(t, `package x
func f() int {
	debug := false
	if debug {
		return 1
	}
	return 0
}
`, "f")
	conds := condBlocks(c)
	if len(conds) != 1 {
		t.Fatalf("found %d condition blocks, want 1", len(conds))
	}
	condBlk := conds[0]
	truth, ok := c.BranchConst(condBlk)
	if !ok || truth {
		t.Errorf("branch verdict: got (%v, %v), want (false, true)", truth, ok)
	}
	// The then-arm (true successor) must be unreachable.
	if c.Reachable(condBlk.Succs[0]) {
		t.Error("pruned then-arm still marked reachable")
	}
	if !c.Reachable(condBlk.Succs[1]) {
		t.Error("taken else-edge must stay reachable")
	}
}

func TestConstWrapsToTypeWidth(t *testing.T) {
	got, ok := constAtReturn(t, `package x
func f() int {
	x := uint8(200)
	y := x + x // wraps mod 256
	return int(y)
}
`)
	if !ok || got != 144 {
		t.Errorf("uint8 wraparound: got %d (ok=%v), want 144", got, ok)
	}
}

func TestConstShortCircuit(t *testing.T) {
	c := solveFunc(t, `package x
func f(n int) int {
	never := false
	if never && n > 3 {
		return 1
	}
	return 0
}
`, "f")
	for _, b := range condBlocks(c) {
		truth, ok := c.BranchConst(b)
		if !ok || truth {
			t.Errorf("short-circuit &&: got (%v, %v), want (false, true)", truth, ok)
		}
	}
}
