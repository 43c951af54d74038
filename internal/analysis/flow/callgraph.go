package flow

import (
	"go/ast"
	"go/types"

	"logicregression/internal/analysis/astutil"
)

// A CallGraph is the static call structure of one package's source: one
// node per function declaration, with the calls its body (including nested
// function literals) makes. Calls through function values and unresolved
// interface methods have no callee node and set HasIndirect — summary
// computations must treat such nodes conservatively.
type CallGraph struct {
	Nodes map[*types.Func]*CallNode
	// Order lists the nodes in source order, for deterministic iteration.
	Order []*CallNode
}

// A CallNode is one declared function and its outgoing calls.
type CallNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Calls are the statically resolved call sites, in source order.
	// Callee is always non-nil; Local is the callee's node when it is
	// declared in this package, nil for imported functions and methods.
	Calls []*CallSite
	// HasIndirect records calls through function values, which resolve to
	// no *types.Func at all.
	HasIndirect bool
}

// A CallSite is one resolved call.
type CallSite struct {
	Site   *ast.CallExpr
	Callee *types.Func
	Local  *CallNode
}

// BuildCallGraph collects the call graph of the files (one package).
func BuildCallGraph(files []*ast.File, info *types.Info) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*CallNode)}
	var decls []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &CallNode{Fn: fn, Decl: fd}
			g.Nodes[fn] = n
			g.Order = append(g.Order, n)
			decls = append(decls, fd)
		}
	}
	for i, fd := range decls {
		n := g.Order[i]
		ast.Inspect(fd.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := astutil.CalleeFunc(info, call)
			if callee == nil {
				// Builtins and conversions are not indirect calls.
				if id, isIdent := astutil.Unparen(call.Fun).(*ast.Ident); isIdent {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						return true
					}
				}
				if tv, isType := info.Types[call.Fun]; isType && tv.IsType() {
					return true
				}
				n.HasIndirect = true
				return true
			}
			n.Calls = append(n.Calls, &CallSite{
				Site:   call,
				Callee: callee,
				Local:  g.Nodes[callee],
			})
			return true
		})
	}
	return g
}

// Fixpoint iterates visit over every node until one full sweep reports no
// change, in reverse source order first (callees tend to precede callers in
// Go files less often than the opposite, but iteration makes order a
// performance detail, not a correctness one). It is the bottom-up summary
// driver: visit updates the node's summary from its callees' summaries and
// reports whether anything changed; recursion and mutual recursion settle
// by iteration. The sweep cap makes a non-monotone visit a loud failure
// instead of a hang.
func (g *CallGraph) Fixpoint(visit func(*CallNode) bool) (converged bool) {
	maxSweeps := len(g.Order) + 2
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for i := len(g.Order) - 1; i >= 0; i-- {
			if visit(g.Order[i]) {
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// FuncLits returns the function literals directly contained in body, not
// descending into nested literals — callers analyzing closures recursively
// get each nesting level exactly once.
func FuncLits(body ast.Node) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != body {
			lits = append(lits, lit)
			return false // nested literals belong to this one
		}
		return true
	})
	return lits
}
