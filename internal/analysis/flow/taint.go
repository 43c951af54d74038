package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TaintSpec configures a forward may-taint analysis over one function: what
// introduces taint, how calls propagate it, and what is tainted at entry.
type TaintSpec struct {
	Info *types.Info
	// Source reports whether evaluating expr introduces taint by itself
	// (e.g. a time.Now() call). Checked before CallTaint for calls.
	Source func(expr ast.Expr) bool
	// CallTaint decides the taint of a call's results. argTainted is true
	// when any argument (or the method receiver) is tainted. A nil
	// CallTaint defaults to taint-through: results are tainted iff an
	// input was, which models pure accessors (t.UnixNano()) and is the
	// conservative choice at indirect and cross-package calls.
	CallTaint func(call *ast.CallExpr, argTainted bool) bool
	// Entry is the set of objects tainted at function entry (parameters,
	// captured variables, fields known tainted from other functions).
	Entry map[types.Object]bool
}

// TaintState is the set of tainted objects at a program point: variables,
// and struct field objects (field taint is shared across all instances of
// the field's struct type — the coarse-but-sound way to track values that
// escape "through fields").
type TaintState map[types.Object]bool

// taintLattice instantiates the forward solver for TaintSpec.
type taintLattice struct {
	spec *TaintSpec
}

func (l *taintLattice) Bottom() TaintState { return nil }

func (l *taintLattice) Entry() TaintState {
	s := make(TaintState, len(l.spec.Entry))
	for obj := range l.spec.Entry {
		s[obj] = true
	}
	return s
}

func (l *taintLattice) Join(a, b TaintState) TaintState {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(TaintState, len(a)+len(b))
	for o := range a {
		out[o] = true
	}
	for o := range b {
		out[o] = true
	}
	return out
}

func (l *taintLattice) Equal(a, b TaintState) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if !b[o] {
			return false
		}
	}
	return true
}

func (l *taintLattice) Transfer(b *Block, in TaintState) TaintState {
	out := l.Join(in, nil)
	if out == nil {
		out = make(TaintState)
	}
	for _, n := range b.Nodes {
		l.transferNode(n, out)
	}
	return out
}

func (l *taintLattice) transferNode(n ast.Node, s TaintState) {
	EachAssign(n, func(a Assign) {
		if len(a.Lhs) > 1 && len(a.Rhs) == 1 {
			// One operand feeds every target (a tuple call, a comma-ok
			// form, a two-target range clause): each gets its taint.
			t := l.spec.ExprTaint(a.Rhs[0], s)
			for _, lhs := range a.Lhs {
				l.assign(lhs, t, s)
			}
			return
		}
		for i, lhs := range a.Lhs {
			if i < len(a.Rhs) {
				t := l.spec.ExprTaint(a.Rhs[i], s)
				if a.Tok >= token.ADD_ASSIGN && a.Tok <= token.AND_NOT_ASSIGN {
					// x op= y reads x: the target keeps its own taint.
					t = t || l.spec.ExprTaint(lhs, s)
				}
				l.assign(lhs, t, s)
			}
		}
	})
}

// assign updates the taint binding for an assignment target. Identifiers
// get strong updates (assigning a clean value un-taints the variable — the
// flow-sensitive part); field selectors get weak updates on the field
// object, which is shared across instances and therefore only accumulates.
func (l *taintLattice) assign(lhs ast.Expr, tainted bool, s TaintState) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		obj := l.objectOf(lhs)
		if obj == nil || lhs.Name == "_" {
			return
		}
		if tainted {
			s[obj] = true
		} else {
			delete(s, obj)
		}
	case *ast.SelectorExpr:
		if !tainted {
			return
		}
		if obj := l.spec.Info.Uses[lhs.Sel]; obj != nil {
			s[obj] = true
		}
	case *ast.ParenExpr:
		l.assign(lhs.X, tainted, s)
	case *ast.StarExpr, *ast.IndexExpr:
		// Writes through pointers/indices: taint the root variable weakly.
		if tainted {
			if id := rootIdent(lhs); id != nil {
				if obj := l.objectOf(id); obj != nil {
					s[obj] = true
				}
			}
		}
	}
}

func (l *taintLattice) objectOf(id *ast.Ident) types.Object {
	if obj := l.spec.Info.Defs[id]; obj != nil {
		return obj
	}
	return l.spec.Info.Uses[id]
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// ExprTaint evaluates the taint of an expression under a state. Function
// literals are opaque (closures are analyzed as their own functions by the
// callers, seeded through Entry).
func (spec *TaintSpec) ExprTaint(e ast.Expr, s TaintState) bool {
	if spec.Source != nil && spec.Source(e) {
		return true
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := spec.Info.Uses[e]
		if obj == nil {
			obj = spec.Info.Defs[e]
		}
		return obj != nil && (s[obj] || spec.Entry[obj])
	case *ast.SelectorExpr:
		if obj := spec.Info.Uses[e.Sel]; obj != nil && (s[obj] || spec.Entry[obj]) {
			return true
		}
		// A selection from a tainted value is tainted (coarse struct
		// taint); a package-qualified name is not a selection.
		if sel := spec.Info.Selections[e]; sel != nil {
			return spec.ExprTaint(e.X, s)
		}
		return false
	case *ast.CallExpr:
		if tv, ok := spec.Info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion: taint passes through.
			return spec.ExprTaint(e.Args[0], s)
		}
		argT := false
		for _, a := range e.Args {
			if spec.ExprTaint(a, s) {
				argT = true
				break
			}
		}
		if !argT {
			// The receiver of a method call counts as an input.
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				if selInfo := spec.Info.Selections[sel]; selInfo != nil {
					argT = spec.ExprTaint(sel.X, s)
				}
			}
		}
		if spec.CallTaint != nil {
			return spec.CallTaint(e, argT)
		}
		return argT
	case *ast.BinaryExpr:
		return spec.ExprTaint(e.X, s) || spec.ExprTaint(e.Y, s)
	case *ast.UnaryExpr:
		return spec.ExprTaint(e.X, s)
	case *ast.StarExpr:
		return spec.ExprTaint(e.X, s)
	case *ast.ParenExpr:
		return spec.ExprTaint(e.X, s)
	case *ast.IndexExpr:
		return spec.ExprTaint(e.X, s) || spec.ExprTaint(e.Index, s)
	case *ast.SliceExpr:
		return spec.ExprTaint(e.X, s)
	case *ast.TypeAssertExpr:
		return spec.ExprTaint(e.X, s)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if spec.ExprTaint(kv.Value, s) {
					return true
				}
				continue
			}
			if spec.ExprTaint(el, s) {
				return true
			}
		}
		return false
	}
	return false
}

// RunTaint solves the taint analysis over one CFG.
func RunTaint(g *CFG, spec *TaintSpec) *Solution[TaintState] {
	return Forward[TaintState](g, &taintLattice{spec: spec})
}

// NodeTaintStates walks one block's nodes in order, giving the callback the
// state in effect immediately before each node — the per-node view of a
// block-level solution, recomputed by replaying the transfer function.
func NodeTaintStates(g *CFG, spec *TaintSpec, sol *Solution[TaintState],
	visit func(n ast.Node, s TaintState)) {

	lat := &taintLattice{spec: spec}
	for _, b := range g.Blocks {
		s := lat.Join(sol.In[b], nil)
		if s == nil {
			s = make(TaintState)
		}
		for _, n := range b.Nodes {
			visit(n, s)
			lat.transferNode(n, s)
		}
	}
}
