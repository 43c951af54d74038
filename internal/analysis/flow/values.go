package flow

import (
	"go/ast"
	"go/token"
	"go/types"

	"logicregression/internal/analysis/astutil"
)

// An Assign is one assignment a CFG node performs. Lhs[i] receives Rhs[i];
// when one multi-value Rhs feeds several targets (a tuple call, a comma-ok
// form, a range clause) each target receives one part of it. Tok is DEFINE
// or ASSIGN, an op= token, INC or DEC (no Rhs), VAR (a var spec; no Rhs
// means zero values), or RANGE (Rhs is the ranged operand).
type Assign struct {
	Lhs, Rhs []ast.Expr
	Tok      token.Token
}

// EachAssign calls fn for every assignment one top-level CFG node performs,
// in order. It is the engine's one definition-site walk: the constant and
// nilflow lattices both read assignments through it.
func EachAssign(n ast.Node, fn func(Assign)) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		fn(Assign{Lhs: n.Lhs, Rhs: n.Rhs, Tok: n.Tok})
	case *ast.IncDecStmt:
		fn(Assign{Lhs: []ast.Expr{n.X}, Tok: n.Tok})
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, sp := range gd.Specs {
			vs := sp.(*ast.ValueSpec)
			lhs := make([]ast.Expr, len(vs.Names))
			for i, id := range vs.Names {
				lhs[i] = id
			}
			fn(Assign{Lhs: lhs, Rhs: vs.Values, Tok: token.VAR})
		}
	case *ast.RangeStmt:
		var lhs []ast.Expr
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e != nil {
				lhs = append(lhs, e)
			}
		}
		fn(Assign{Lhs: lhs, Rhs: []ast.Expr{n.X}, Tok: token.RANGE})
	}
}

// Locals numbers the variables of one function that the value lattices
// follow: parameters, named results, the receiver, and locals that are
// never address-taken — explicitly with &, or implicitly as the operand of
// a pointer-receiver method call or method value — and never assigned
// inside a function literal. Any other variable can change behind the
// function's back, so its value stays opaque.
type Locals struct {
	Info  *types.Info
	Vars  []*types.Var
	index map[*types.Var]int
}

// NewLocals collects the tracked variables of fn, a *ast.FuncDecl or
// *ast.FuncLit, in declaration order.
func NewLocals(fn ast.Node, info *types.Info) *Locals {
	recv, typ, body := funcParts(fn)
	var cands []*types.Var
	add := func(id *ast.Ident) {
		if v, ok := info.Defs[id].(*types.Var); ok && id.Name != "_" {
			cands = append(cands, v)
		}
	}
	for _, fl := range []*ast.FieldList{recv, typ.Params, typ.Results} {
		if fl == nil {
			continue
		}
		for _, fld := range fl.List {
			for _, id := range fld.Names {
				add(id)
			}
		}
	}
	untracked := make(map[types.Object]bool)
	disqualify := func(e ast.Expr) {
		if id, ok := astutil.Unparen(e).(*ast.Ident); ok {
			untracked[astutil.ObjectOf(info, id)] = true
		}
	}
	var walk func(root ast.Node, inLit bool)
	walk = func(root ast.Node, inLit bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !inLit {
					add(n)
				}
			case *ast.FuncLit:
				walk(n.Body, true)
				return false
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					disqualify(n.X)
				}
			case *ast.SelectorExpr:
				// x.m with a pointer receiver and no indirection is
				// (&x).m: the method may write x.
				if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal && !sel.Indirect() {
					if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
						disqualify(n.X)
					}
				}
			}
			if inLit {
				EachAssign(n, func(a Assign) {
					for _, lhs := range a.Lhs {
						disqualify(lhs)
					}
				})
			}
			return true
		})
	}
	walk(body, false)

	l := &Locals{Info: info, index: make(map[*types.Var]int)}
	for _, v := range cands {
		if !untracked[v] {
			l.index[v] = len(l.Vars)
			l.Vars = append(l.Vars, v)
		}
	}
	return l
}

// Of returns the index of the tracked variable e names (through
// parentheses), or -1.
func (l *Locals) Of(e ast.Expr) int {
	id, ok := astutil.Unparen(e).(*ast.Ident)
	if !ok {
		return -1
	}
	if v, ok := astutil.ObjectOf(l.Info, id).(*types.Var); ok {
		if i, ok := l.index[v]; ok {
			return i
		}
	}
	return -1
}

// funcParts splits a *ast.FuncDecl or *ast.FuncLit into its receiver (nil
// for literals), signature and body.
func funcParts(fn ast.Node) (*ast.FieldList, *ast.FuncType, *ast.BlockStmt) {
	if fd, ok := fn.(*ast.FuncDecl); ok {
		return fd.Recv, fd.Type, fd.Body
	}
	lit := fn.(*ast.FuncLit)
	return nil, lit.Type, lit.Body
}
