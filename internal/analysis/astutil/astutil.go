// Package astutil holds the small AST and type-resolution helpers shared by
// the repo analyzers (internal/analysis/analyzers) and the dataflow engine
// (internal/analysis/flow). They were originally private to the analyzers
// package; the flow engine needs the same resolution logic, so they live in
// one exported place with their own tests instead of two drifting copies.
package astutil

import (
	"go/ast"
	"go/types"
)

// Unparen strips any parentheses around e.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// CalleeFunc resolves the function or method a call statically invokes, or
// nil for indirect calls through function values (and for builtins and type
// conversions, which are not *types.Func).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsBuiltin reports whether call invokes the named universe builtin
// (panic, recover, close, ...), seen through parentheses.
func IsBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// ObjectOf resolves the object an identifier defines or uses.
func ObjectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
