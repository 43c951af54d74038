package ssa

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"logicregression/internal/analysis/flow"
)

// constCell is the SCCP lattice: Top (undetermined, optimistic), a single
// constant, or Bottom (provably non-constant).
type constCell struct {
	state int // 0 = top, 1 = const, 2 = bottom
	val   constant.Value
}

var (
	cellTop    = constCell{state: 0}
	cellBottom = constCell{state: 2}
)

func cellConst(v constant.Value) constCell {
	if v == nil || v.Kind() == constant.Unknown {
		return cellBottom
	}
	return constCell{state: 1, val: v}
}

func (c constCell) meet(d constCell) constCell {
	switch {
	case c.state == 0:
		return d
	case d.state == 0:
		return c
	case c.state == 2 || d.state == 2:
		return cellBottom
	case constant.Compare(c.val, token.EQL, d.val):
		return c
	default:
		return cellBottom
	}
}

func (c constCell) eq(d constCell) bool {
	if c.state != d.state {
		return false
	}
	if c.state != 1 {
		return true
	}
	return constant.Compare(c.val, token.EQL, d.val)
}

// SCCP is the result of sparse conditional constant propagation over one
// Func: a constant verdict per SSA value, executability per CFG edge and
// block, and a constant verdict per branch condition.
type SCCP struct {
	f     *Func
	cells map[*Value]constCell
	// edgeExec[pred][succIdx] — whether that CFG edge can execute.
	edgeExec  map[[2]int]bool
	blockExec []bool
}

// RunSCCP runs the classic two-worklist SCCP algorithm with branch
// pruning: blocks become executable only when an executable edge reaches
// them, phi nodes join over executable in-edges only, and a branch whose
// condition folds to a constant marks only the taken edge executable.
func RunSCCP(f *Func) *SCCP {
	s := &SCCP{
		f:         f,
		cells:     make(map[*Value]constCell),
		edgeExec:  make(map[[2]int]bool),
		blockExec: make([]bool, len(f.CFG.Blocks)),
	}

	// usedBy: which values' definitions mention each value; condUsers:
	// which branch blocks' conditions mention each value.
	usedBy := make(map[*Value][]*Value)
	condUsers := make(map[*Value][]*flow.Block)
	addExprDeps := func(target *Value, e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if src := f.UseVal[id]; src != nil {
					usedBy[src] = append(usedBy[src], target)
				}
			}
			return true
		})
	}
	for _, v := range f.Values {
		switch v.Kind {
		case KindExpr, KindCompound:
			addExprDeps(v, v.Rhs)
			if v.Prev != nil {
				usedBy[v.Prev] = append(usedBy[v.Prev], v)
			}
		case KindPhi:
			for _, e := range v.Phi.Edges {
				if e.Val != nil {
					usedBy[e.Val] = append(usedBy[e.Val], v)
				}
			}
		}
	}
	for _, b := range f.CFG.Blocks {
		if b.Cond == nil || len(b.Succs) != 2 {
			continue
		}
		cond := b.Cond
		blk := b
		ast.Inspect(cond, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if src := f.UseVal[id]; src != nil {
					condUsers[src] = append(condUsers[src], blk)
				}
			}
			return true
		})
	}

	var flowWork [][2]int // edges (pred block index, succ position)
	var ssaWork []*Value

	markEdge := func(pi, si int) {
		key := [2]int{pi, si}
		if s.edgeExec[key] {
			return
		}
		s.edgeExec[key] = true
		flowWork = append(flowWork, key)
	}

	set := func(v *Value, c constCell) {
		old, ok := s.cells[v]
		if !ok {
			old = cellTop
		}
		// Monotone: never go back up the lattice.
		next := old.meet(c)
		if next.eq(old) {
			return
		}
		s.cells[v] = next
		ssaWork = append(ssaWork, v)
	}

	evalValue := func(v *Value) constCell {
		switch v.Kind {
		case KindZero:
			return zeroCell(v.Var.Type())
		case KindExpr:
			return s.evalExpr(v.Rhs)
		case KindCompound:
			prev := cellBottom
			if v.Prev != nil {
				prev = s.cellOf(v.Prev)
			}
			var rhs constCell
			if v.Rhs == nil {
				rhs = cellConst(constant.MakeInt64(1))
			} else {
				rhs = s.evalExpr(v.Rhs)
			}
			return s.foldBinary(v.Op, prev, rhs, v.Var.Type())
		case KindPhi:
			out := cellTop
			for _, e := range v.Phi.Edges {
				if e.Val == nil {
					continue
				}
				si := succPos(e.Pred, v.Block)
				if si < 0 || !s.edgeExec[[2]int{e.Pred.Index, si}] {
					continue
				}
				out = out.meet(s.cellOf(e.Val))
			}
			return out
		default: // params, calls, opaque, range
			return cellBottom
		}
	}

	blockValues := make(map[*flow.Block][]*Value)
	for _, v := range f.Values {
		if v.Block != nil && v.Kind != KindPhi {
			blockValues[v.Block] = append(blockValues[v.Block], v)
		}
	}

	processBlock := func(bi int) {
		b := f.CFG.Blocks[bi]
		// (Re-)evaluate definitions and phis in the block.
		for _, phi := range f.Phis[b] {
			set(phi.Value, evalValue(phi.Value))
		}
		for _, v := range blockValues[b] {
			set(v, evalValue(v))
		}
		// Successor edges.
		switch {
		case b.Cond != nil && len(b.Succs) == 2:
			c := s.evalExpr(b.Cond)
			switch {
			case c.state == 1 && c.val.Kind() == constant.Bool:
				if constant.BoolVal(c.val) {
					markEdge(bi, 0)
				} else {
					markEdge(bi, 1)
				}
			case c.state == 0:
				// Not yet known: wait.
			default:
				markEdge(bi, 0)
				markEdge(bi, 1)
			}
		default:
			for si := range b.Succs {
				markEdge(bi, si)
			}
		}
	}

	// Seed: the entry block executes.
	s.blockExec[0] = true
	processBlock(0)
	for len(flowWork) > 0 || len(ssaWork) > 0 {
		for len(flowWork) > 0 {
			e := flowWork[len(flowWork)-1]
			flowWork = flowWork[:len(flowWork)-1]
			dst := f.CFG.Blocks[e[0]].Succs[e[1]]
			if !s.blockExec[dst.Index] {
				s.blockExec[dst.Index] = true
				processBlock(dst.Index)
			} else {
				// New in-edge to an executable block: phis may drop.
				for _, phi := range f.Phis[dst] {
					set(phi.Value, evalValue(phi.Value))
				}
			}
		}
		for len(ssaWork) > 0 {
			v := ssaWork[len(ssaWork)-1]
			ssaWork = ssaWork[:len(ssaWork)-1]
			for _, u := range usedBy[v] {
				if u.Block != nil && s.blockExec[u.Block.Index] {
					set(u, evalValue(u))
				}
			}
			for _, cb := range condUsers[v] {
				if s.blockExec[cb.Index] {
					processBlock(cb.Index)
				}
			}
		}
	}
	return s
}

func succPos(pred, succ *flow.Block) int {
	for i, s := range pred.Succs {
		if s == succ {
			return i
		}
	}
	return -1
}

func (s *SCCP) cellOf(v *Value) constCell {
	if c, ok := s.cells[v]; ok {
		return c
	}
	return cellTop
}

// Reachable reports whether SCCP proved b executable. Blocks pruned by
// constant branches — and blocks the CFG builder already knew were
// unreachable — report false.
func (s *SCCP) Reachable(b *flow.Block) bool {
	return s.blockExec[b.Index]
}

// ConstAt folds an expression using the final SCCP cells. The block
// parameter is documentation of intent (the expression's identifiers are
// resolved through their use-site values, which are block-accurate by
// construction).
func (s *SCCP) ConstAt(e ast.Expr, _ *flow.Block) (constant.Value, bool) {
	c := s.evalExpr(e)
	if c.state == 1 {
		return c.val, true
	}
	return nil, false
}

// BranchConst reports whether the condition of a two-successor branch
// block folds to a constant, and its truth value.
func (s *SCCP) BranchConst(b *flow.Block) (truth, ok bool) {
	if b.Cond == nil || len(b.Succs) != 2 || !s.blockExec[b.Index] {
		return false, false
	}
	c := s.evalExpr(b.Cond)
	if c.state == 1 && c.val.Kind() == constant.Bool {
		return constant.BoolVal(c.val), true
	}
	return false, false
}

// evalExpr folds an expression over the current cells. Top is returned
// only when some operand is still Top; any unmodeled construct is Bottom.
func (s *SCCP) evalExpr(e ast.Expr) constCell {
	if e == nil {
		return cellBottom
	}
	// The type checker already folded constant expressions.
	if tv, ok := s.f.Info.Types[e]; ok && tv.Value != nil {
		return cellConst(tv.Value)
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return s.evalExpr(e.X)
	case *ast.Ident:
		if v := s.f.UseVal[e]; v != nil {
			return s.cellOf(v)
		}
		return cellBottom
	case *ast.UnaryExpr:
		x := s.evalExpr(e.X)
		if x.state != 1 {
			return x
		}
		return s.foldUnary(e.Op, x, s.f.Info.TypeOf(e))
	case *ast.BinaryExpr:
		return s.foldBinaryExpr(e)
	case *ast.CallExpr:
		// len of a fixed-size array is a constant even for non-constant
		// operands; the type checker only folds it for constant ones.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && len(e.Args) == 1 {
			if _, isB := s.f.Info.Uses[id].(*types.Builtin); isB && (id.Name == "len" || id.Name == "cap") {
				if n, ok := arrayLen(s.f.Info.TypeOf(e.Args[0])); ok {
					return cellConst(constant.MakeInt64(n))
				}
			}
		}
		// Conversions T(x) parse as calls.
		if tv, ok := s.f.Info.Types[e.Fun]; ok && tv.IsType() {
			x := s.evalExpr(e.Args[0])
			if x.state != 1 {
				return x
			}
			return convertCell(x, s.f.Info.TypeOf(e))
		}
		return cellBottom
	}
	return cellBottom
}

func arrayLen(t types.Type) (int64, bool) {
	if t == nil {
		return 0, false
	}
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		u = p.Elem().Underlying()
	}
	if a, ok := u.(*types.Array); ok {
		return a.Len(), true
	}
	return 0, false
}

func (s *SCCP) foldBinaryExpr(e *ast.BinaryExpr) constCell {
	x := s.evalExpr(e.X)
	// Short-circuit operators can fold with one known side.
	if e.Op == token.LAND || e.Op == token.LOR {
		if x.state == 1 && x.val.Kind() == constant.Bool {
			b := constant.BoolVal(x.val)
			if e.Op == token.LAND && !b {
				return cellConst(constant.MakeBool(false))
			}
			if e.Op == token.LOR && b {
				return cellConst(constant.MakeBool(true))
			}
			return s.evalExpr(e.Y)
		}
		y := s.evalExpr(e.Y)
		if x.state == 0 || y.state == 0 {
			return cellTop
		}
		return cellBottom
	}
	y := s.evalExpr(e.Y)
	return s.foldBinary(e.Op, x, y, s.f.Info.TypeOf(e))
}

func (s *SCCP) foldUnary(op token.Token, x constCell, t types.Type) (out constCell) {
	out = cellBottom
	defer func() { recover() }() // go/constant panics on exotic inputs
	switch op {
	case token.NOT, token.SUB, token.ADD, token.XOR:
		prec := uint(0)
		if op == token.XOR {
			prec = precOf(t)
			if prec == 0 {
				return cellBottom
			}
		}
		v := constant.UnaryOp(op, x.val, prec)
		return wrapCell(cellConst(v), t)
	}
	return cellBottom
}

// foldBinary folds op over two cells, wrapping the result into t's width.
func (s *SCCP) foldBinary(op token.Token, x, y constCell, t types.Type) constCell {
	if x.state == 2 || y.state == 2 {
		return cellBottom
	}
	if x.state == 0 || y.state == 0 {
		return cellTop
	}
	return foldConst(op, x.val, y.val, t)
}

func foldConst(op token.Token, xv, yv constant.Value, t types.Type) (out constCell) {
	out = cellBottom
	defer func() { recover() }()
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return cellConst(constant.MakeBool(constant.Compare(xv, op, yv)))
	case token.SHL, token.SHR:
		n, ok := shiftCount(yv)
		if !ok {
			return cellBottom
		}
		return wrapCell(cellConst(constant.Shift(xv, op, n)), t)
	case token.QUO:
		if isIntType(t) {
			if constant.Sign(yv) == 0 {
				return cellBottom
			}
			return wrapCell(cellConst(constant.BinaryOp(xv, token.QUO_ASSIGN, yv)), t)
		}
		return cellBottom
	case token.REM:
		if constant.Sign(yv) == 0 {
			return cellBottom
		}
		return wrapCell(cellConst(constant.BinaryOp(xv, op, yv)), t)
	case token.ADD, token.SUB, token.MUL, token.AND, token.OR, token.XOR, token.AND_NOT:
		return wrapCell(cellConst(constant.BinaryOp(xv, op, yv)), t)
	}
	return cellBottom
}

func shiftCount(v constant.Value) (uint, bool) {
	n, ok := constant.Uint64Val(constant.ToInt(v))
	if !ok || n > 512 {
		return 0, false
	}
	return uint(n), true
}

func isIntType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// precOf returns the bit width of an integer type, assuming a 64-bit
// target for int/uint/uintptr (documented caveat: proofs hold for 64-bit
// platforms, which is everything this repo targets).
func precOf(t types.Type) uint {
	if t == nil {
		return 0
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0
	}
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	case types.Int64, types.Uint64, types.Int, types.Uint, types.Uintptr, types.UntypedInt:
		return 64
	}
	return 0
}

func isUnsigned(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned != 0
}

// wrapCell reduces an arbitrary-precision constant into the two's-
// complement range of type t, mirroring Go's run-time wraparound.
func wrapCell(c constCell, t types.Type) constCell {
	if c.state != 1 || t == nil {
		return c
	}
	if c.val.Kind() == constant.Bool {
		return c
	}
	if !isIntType(t) {
		return cellBottom
	}
	prec := precOf(t)
	if prec == 0 {
		return cellBottom
	}
	v := constant.ToInt(c.val)
	if v.Kind() != constant.Int {
		return cellBottom
	}
	if isUnsigned(t) {
		u, exact := constant.Uint64Val(v)
		if exact && prec == 64 {
			return cellConst(constant.MakeUint64(u))
		}
		// Reduce modulo 2^prec via repeated arithmetic on uint64.
		masked := uint64FromConst(v) & maskFor(prec)
		return cellConst(constant.MakeUint64(masked))
	}
	i, exact := constant.Int64Val(v)
	if exact && prec == 64 {
		return cellConst(constant.MakeInt64(i))
	}
	masked := uint64FromConst(v) & maskFor(prec)
	// Sign-extend.
	if prec < 64 && masked&(1<<(prec-1)) != 0 {
		masked |= ^maskFor(prec)
	}
	return cellConst(constant.MakeInt64(int64(masked)))
}

func maskFor(prec uint) uint64 {
	if prec >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << prec) - 1
}

// uint64FromConst reduces an arbitrary-precision integer to its low 64
// bits, mirroring two's-complement truncation.
func uint64FromConst(v constant.Value) uint64 {
	if u, exact := constant.Uint64Val(v); exact {
		return u
	}
	if i, exact := constant.Int64Val(v); exact {
		return uint64(i)
	}
	// Out of 64-bit range: reduce modulo 2^64 by splitting the decimal
	// string. Slow path, only hit by pathological constants.
	neg := constant.Sign(v) < 0
	abs := v
	if neg {
		abs = constant.UnaryOp(token.SUB, v, 0)
	}
	var out uint64
	for _, d := range abs.ExactString() {
		if d < '0' || d > '9' {
			return 0
		}
		out = out*10 + uint64(d-'0')
	}
	if neg {
		return -out
	}
	return out
}

func convertCell(x constCell, t types.Type) constCell {
	if x.state != 1 {
		return x
	}
	if !isIntType(t) {
		return cellBottom
	}
	return wrapCell(x, t)
}

func zeroCell(t types.Type) constCell {
	if t == nil {
		return cellBottom
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return cellBottom
	}
	switch {
	case b.Info()&types.IsInteger != 0:
		return cellConst(constant.MakeInt64(0))
	case b.Info()&types.IsBoolean != 0:
		return cellConst(constant.MakeBool(false))
	case b.Info()&types.IsString != 0:
		return cellConst(constant.MakeString(""))
	case b.Info()&types.IsFloat != 0:
		return cellConst(constant.MakeFloat64(0))
	}
	return cellBottom
}
