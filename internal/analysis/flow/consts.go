package flow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"logicregression/internal/analysis/astutil"
)

// This file is conditional constant propagation run densely on the forward
// solver: each program point maps every tracked local (see Locals) to a
// flat cell, and a branch whose condition folds to a constant sends its
// dead edge to the unreachable state. Wegman and Zadeck (TOPLAS 1991) show
// that this dense form finds exactly the constants and the executable
// edges their sparse SSA algorithm (SCCP) finds.

// A cell is one variable's value: undetermined (the zero cell: no
// definition has reached it yet), one constant, or varying.
type cell struct {
	val     constant.Value
	varying bool
}

var varying = cell{varying: true}

func (c cell) top() bool { return c.val == nil && !c.varying }

func constCell(v constant.Value) cell {
	if v == nil || v.Kind() == constant.Unknown {
		return varying
	}
	return cell{val: v}
}

func (c cell) meet(d cell) cell {
	switch {
	case c.top():
		return d
	case d.top():
		return c
	case c.varying || d.varying || !sameConst(c.val, d.val):
		return varying
	}
	return c
}

func (c cell) eq(d cell) bool {
	if c.val == nil || d.val == nil {
		return c == d
	}
	return sameConst(c.val, d.val)
}

func sameConst(a, b constant.Value) bool {
	return a.Kind() == b.Kind() && constant.Compare(a, token.EQL, b)
}

// constState holds one cell per tracked local; nil is the unreachable
// state, the identity of the join.
type constState []cell

type constLattice struct {
	locals *Locals
	entry  constState
}

func (l *constLattice) Bottom() constState { return nil }
func (l *constLattice) Entry() constState  { return l.entry }

func (l *constLattice) Join(a, b constState) constState {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(constState, len(a))
	for i := range a {
		out[i] = a[i].meet(b[i])
	}
	return out
}

func (l *constLattice) Equal(a, b constState) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !a[i].eq(b[i]) {
			return false
		}
	}
	return true
}

func (l *constLattice) Transfer(b *Block, in constState) constState {
	if in == nil {
		return nil
	}
	out := append(constState{}, in...)
	for _, n := range b.Nodes {
		l.transferNode(n, out)
	}
	return out
}

// FlowBranch prunes the edge a constant condition never takes. While the
// condition is still undetermined neither edge runs yet.
func (l *constLattice) FlowBranch(b *Block, succIdx int, out constState) constState {
	if out == nil {
		return nil
	}
	c := l.eval(b.Cond, out)
	if c.top() || c.val != nil && c.val.Kind() == constant.Bool && constant.BoolVal(c.val) != (succIdx == 0) {
		return nil
	}
	return out
}

func (l *constLattice) transferNode(n ast.Node, s constState) {
	set := func(lhs ast.Expr, c cell) {
		if i := l.locals.Of(lhs); i >= 0 {
			s[i] = c
		}
	}
	EachAssign(n, func(a Assign) {
		switch {
		case a.Tok == token.RANGE || len(a.Lhs) > 1 && len(a.Rhs) == 1:
			// Range clauses and multi-value results are not modeled.
			for _, lhs := range a.Lhs {
				set(lhs, varying)
			}
		case a.Tok == token.INC || a.Tok == token.DEC ||
			a.Tok >= token.ADD_ASSIGN && a.Tok <= token.AND_NOT_ASSIGN:
			i := l.locals.Of(a.Lhs[0])
			if i < 0 {
				return
			}
			// x++ is x += 1; go/token lists the op= tokens in the
			// order of their operators.
			op, rhs := token.ADD, constCell(constant.MakeInt64(1))
			if a.Tok == token.DEC {
				op = token.SUB
			} else if a.Tok != token.INC {
				op, rhs = a.Tok-token.ADD_ASSIGN+token.ADD, l.eval(a.Rhs[0], s)
			}
			s[i] = foldBinary(op, s[i], rhs, l.locals.Vars[i].Type())
		case len(a.Rhs) == 0: // var x T
			for _, lhs := range a.Lhs {
				if i := l.locals.Of(lhs); i >= 0 {
					s[i] = zeroCell(l.locals.Vars[i].Type())
				}
			}
		default:
			// Every right-hand side reads the values before the
			// assignment: x, y = y, x swaps.
			vals := make([]cell, len(a.Rhs))
			for i, rhs := range a.Rhs {
				vals[i] = l.eval(rhs, s)
			}
			for i, lhs := range a.Lhs {
				set(lhs, vals[i])
			}
		}
	})
}

// Consts is the solved constant propagation of one function body.
type Consts struct {
	CFG *CFG
	*Solution[constState]
	lat *constLattice
}

// SolveConsts runs conditional constant propagation over fn, a
// *ast.FuncDecl or *ast.FuncLit with a body. Parameters and the receiver
// enter varying, named results as their zero values.
func SolveConsts(fn ast.Node, info *types.Info) *Consts {
	recv, typ, body := funcParts(fn)
	lat := &constLattice{locals: NewLocals(fn, info)}
	lat.entry = make(constState, len(lat.locals.Vars))
	for _, fl := range []*ast.FieldList{recv, typ.Params, typ.Results} {
		if fl == nil {
			continue
		}
		for _, fld := range fl.List {
			for _, id := range fld.Names {
				if i := lat.locals.Of(id); i >= 0 {
					lat.entry[i] = varying
					if fl == typ.Results {
						lat.entry[i] = zeroCell(lat.locals.Vars[i].Type())
					}
				}
			}
		}
	}
	g := New(body, info)
	return &Consts{CFG: g, Solution: Forward[constState](g, lat), lat: lat}
}

// Reachable reports whether some executable path reaches b: blocks behind
// a constant condition's dead edge, and blocks the CFG builder already
// knew were unreachable, report false.
func (c *Consts) Reachable(b *Block) bool { return c.In[b] != nil }

// BranchConst reports whether the condition of a reachable condition block
// folds to a constant, and its truth value.
func (c *Consts) BranchConst(b *Block) (truth, ok bool) {
	if b.Cond == nil || !c.Reachable(b) {
		return false, false
	}
	v := c.lat.eval(b.Cond, c.Out[b])
	if v.val == nil || v.val.Kind() != constant.Bool {
		return false, false
	}
	return constant.BoolVal(v.val), true
}

// eval folds e under state s. It returns the undetermined cell only while
// some operand is undetermined; anything it does not model is varying.
func (l *constLattice) eval(e ast.Expr, s constState) cell {
	info := l.locals.Info
	// The type checker already folded constant expressions.
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return constCell(tv.Value)
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return l.eval(e.X, s)
	case *ast.Ident:
		if i := l.locals.Of(e); i >= 0 {
			return s[i]
		}
	case *ast.UnaryExpr:
		x := l.eval(e.X, s)
		if x.val == nil {
			return x
		}
		return foldUnary(e.Op, x.val, info.TypeOf(e))
	case *ast.BinaryExpr:
		x := l.eval(e.X, s)
		if e.Op != token.LAND && e.Op != token.LOR {
			return foldBinary(e.Op, x, l.eval(e.Y, s), info.TypeOf(e))
		}
		// A known left operand decides && and || on its own or hands
		// over to the right one.
		if x.val != nil && x.val.Kind() == constant.Bool {
			if constant.BoolVal(x.val) == (e.Op == token.LOR) {
				return x
			}
			return l.eval(e.Y, s)
		}
		if y := l.eval(e.Y, s); x.top() || y.top() {
			return cell{}
		}
	case *ast.CallExpr:
		// len and cap of an array are constant even where the type
		// checker leaves them unfolded (an operand with a call in it).
		if id, ok := astutil.Unparen(e.Fun).(*ast.Ident); ok && len(e.Args) == 1 &&
			(id.Name == "len" || id.Name == "cap") {
			if _, ok := info.Uses[id].(*types.Builtin); ok {
				if n, ok := arrayLen(info.TypeOf(e.Args[0])); ok {
					return constCell(constant.MakeInt64(n))
				}
			}
		}
		// Conversions T(x) parse as calls; only integer ones fold.
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			x := l.eval(e.Args[0], s)
			if w, _ := IntWidth(tv.Type); x.val != nil && w > 0 {
				return wrap(x.val, tv.Type)
			}
			if x.top() {
				return x
			}
		}
	}
	return varying
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

func foldUnary(op token.Token, x constant.Value, t types.Type) (out cell) {
	out = varying
	defer func() { recover() }() // go/constant panics on exotic inputs
	var prec uint
	switch op {
	case token.XOR:
		if prec, _ = IntWidth(t); prec == 0 {
			return varying
		}
	case token.NOT, token.SUB, token.ADD:
	default:
		return varying
	}
	return wrap(constant.UnaryOp(op, x, prec), t)
}

// foldBinary folds op over two cells, wrapping the result to t's width.
func foldBinary(op token.Token, x, y cell, t types.Type) (out cell) {
	switch {
	case x.varying || y.varying:
		return varying
	case x.top() || y.top():
		return cell{}
	}
	out = varying
	defer func() { recover() }()
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return constCell(constant.MakeBool(constant.Compare(x.val, op, y.val)))
	case token.SHL, token.SHR:
		n, ok := constant.Uint64Val(constant.ToInt(y.val))
		if !ok || n > 512 {
			return varying
		}
		return wrap(constant.Shift(x.val, op, uint(n)), t)
	case token.QUO, token.REM:
		if w, _ := IntWidth(t); w == 0 || constant.Sign(y.val) == 0 {
			return varying
		}
		if op == token.QUO {
			op = token.QUO_ASSIGN // integer division
		}
		return wrap(constant.BinaryOp(x.val, op, y.val), t)
	case token.ADD, token.SUB, token.MUL, token.AND, token.OR, token.XOR, token.AND_NOT:
		return wrap(constant.BinaryOp(x.val, op, y.val), t)
	}
	return varying
}

// IntWidth returns the bit width of a (possibly named) integer type, 0 if
// t is not one, and whether it is unsigned. int, uint and uintptr count as
// 64 bits: the verdicts hold on 64-bit targets, which is all this module
// builds for.
func IntWidth(t types.Type) (uint, bool) {
	if t == nil {
		return 0, false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0, false
	}
	unsigned := b.Info()&types.IsUnsigned != 0
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8, unsigned
	case types.Int16, types.Uint16:
		return 16, unsigned
	case types.Int32, types.Uint32:
		return 32, unsigned
	case types.Int64, types.Uint64, types.Int, types.Uint, types.Uintptr, types.UntypedInt:
		return 64, unsigned
	}
	return 0, false
}

// wrap reduces v into the two's-complement range of t, as Go's run-time
// arithmetic wraps. Booleans pass through; a value of any type that is not
// an integer of known width is varying.
func wrap(v constant.Value, t types.Type) cell {
	if v.Kind() == constant.Bool {
		return constCell(v)
	}
	w, unsigned := IntWidth(t)
	if v = constant.ToInt(v); w == 0 || v.Kind() != constant.Int {
		return varying
	}
	mod := constant.Shift(constant.MakeInt64(1), token.SHL, w)
	if v = constant.BinaryOp(v, token.REM, mod); constant.Sign(v) < 0 {
		v = constant.BinaryOp(v, token.ADD, mod)
	}
	if half := constant.Shift(mod, token.SHR, 1); !unsigned && constant.Compare(v, token.GEQ, half) {
		v = constant.BinaryOp(v, token.SUB, mod)
	}
	return constCell(v)
}

func zeroCell(t types.Type) cell {
	b, ok := t.Underlying().(*types.Basic)
	switch {
	case !ok:
		return varying
	case b.Info()&types.IsInteger != 0:
		return constCell(constant.MakeInt64(0))
	case b.Info()&types.IsBoolean != 0:
		return constCell(constant.MakeBool(false))
	case b.Info()&types.IsString != 0:
		return constCell(constant.MakeString(""))
	case b.Info()&types.IsFloat != 0:
		return constCell(constant.MakeFloat64(0))
	}
	return varying
}
