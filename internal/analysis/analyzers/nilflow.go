package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"logicregression/internal/analysis"
	"logicregression/internal/analysis/flow/ssa"
)

// NilFlow flags dereference-style uses of a call result on paths where the
// paired error result is proven non-nil by a dominating branch check — the
// `v, err := open(...); if err != nil { return v.Close() }` class of bug:
// by the function's own contract, v may be nil exactly when err is not.
//
// The check is SSA-precise: it tracks the specific value produced by the
// call, so a reassignment (`v = fallback()`) between the check and the use
// ends the value's liability, and an error checked into one branch never
// taints uses the branch does not dominate. Only nilable result types
// (pointers, interfaces, slices, maps, funcs, chans) paired with an
// error-typed result in the same assignment are considered, and only uses
// that panic on nil (field/method selection through a pointer or
// interface, dereference, slice indexing, calling) are flagged.
var NilFlow = &analysis.Analyzer{
	Name: "nilflow",
	Doc: "flags uses of a call result that may be nil because the paired " +
		"err != nil branch is taken, tracked through SSA values",
	Run: runNilFlow,
}

func runNilFlow(pass *analysis.Pass) error {
	sup := suppressedLines(pass, "nilflow")
	info := pass.TypesInfo
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			f := ssa.Build(fd, info)
			if f == nil {
				continue
			}
			checkNilFlowFunc(pass, f, fd, sup)
		}
	}
	return nil
}

// callPair is one multi-value call assignment producing at least one
// nilable result and exactly one error result.
type callPair struct {
	results []*ssa.Value // the nilable, non-error results
	errV    *ssa.Value
}

func checkNilFlowFunc(pass *analysis.Pass, f *ssa.Func, fd *ast.FuncDecl,
	sup map[string]bool) {

	// Group call-result values by their call expression.
	byCall := make(map[*ast.CallExpr]*callPair)
	for _, v := range f.Values {
		if v.Kind != ssa.KindCall || v.Call == nil || v.Var == nil {
			continue
		}
		p := byCall[v.Call]
		if p == nil {
			p = &callPair{}
			byCall[v.Call] = p
		}
		if isErrorType(v.Var.Type()) {
			if p.errV != nil {
				p.errV = nil // two error results: ambiguous pairing, skip
				delete(byCall, v.Call)
				continue
			}
			p.errV = v
		} else if isNilable(v.Var.Type()) {
			p.results = append(p.results, v)
		}
	}

	parents := parentMap(fd.Body)
	for _, p := range byCall {
		if p.errV == nil || len(p.results) == 0 {
			continue
		}
		for _, res := range p.results {
			for _, use := range f.UsesOf[res] {
				if !riskyNilUse(pass.TypesInfo, parents, use) {
					continue
				}
				blk := f.BlockAt(use.Pos())
				if blk == nil {
					continue
				}
				for _, fact := range f.FactsAt(blk) {
					if !factProvesErrNonNil(f, fact, p.errV) {
						continue
					}
					if !suppressed(pass, sup, use.Pos()) {
						pass.Reportf(use.Pos(),
							"%s may be nil here: this path is only taken when %s != nil "+
								"(checked at %s), and the two come from the same call",
							use.Name, p.errV.Var.Name(),
							pass.Fset.Position(fact.Cond.Pos()))
					}
					break
				}
			}
		}
	}
}

// factProvesErrNonNil reports whether a dominating branch fact pins the
// error value non-nil: `err != nil` taken true or `err == nil` taken
// false, where `err` resolves to the same SSA value as errV.
func factProvesErrNonNil(f *ssa.Func, fact ssa.Fact, errV *ssa.Value) bool {
	be, ok := ast.Unparen(fact.Cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	var nonNilWhen bool
	switch be.Op {
	case token.NEQ:
		nonNilWhen = true
	case token.EQL:
		nonNilWhen = false
	default:
		return false
	}
	if fact.Truth != nonNilWhen {
		return false
	}
	errSide, nilSide := be.X, be.Y
	if isNilIdent(f.Info, errSide) {
		errSide, nilSide = nilSide, errSide
	}
	if !isNilIdent(f.Info, nilSide) {
		return false
	}
	id, ok := ast.Unparen(errSide).(*ast.Ident)
	if !ok {
		return false
	}
	v := f.ValueOfUse(id)
	return v != nil && f.Canonical(v) == errV
}

// riskyNilUse reports whether the identifier's immediate syntactic context
// panics when the value is nil.
func riskyNilUse(info *types.Info, parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	child := ast.Node(id)
	parent := parents[child]
	for {
		pe, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		child, parent = pe, parents[pe]
	}
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		if p.X != child {
			return false
		}
		// Field or method access through a pointer dereferences it; a
		// method call on a nil interface has no dynamic dispatch target.
		t := info.TypeOf(id)
		if t == nil {
			return false
		}
		switch t.Underlying().(type) {
		case *types.Pointer, *types.Interface:
			return true
		}
	case *ast.StarExpr:
		return p.X == child
	case *ast.IndexExpr:
		if p.X != child {
			return false
		}
		// Indexing a nil slice panics (len is 0); reading a nil map does
		// not, so maps are excluded.
		t := info.TypeOf(id)
		if t == nil {
			return false
		}
		_, isSlice := t.Underlying().(*types.Slice)
		return isSlice
	case *ast.CallExpr:
		return p.Fun == child // calling a nil func value
	}
	return false
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

func isNilable(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Slice, *types.Map,
		*types.Signature, *types.Chan:
		return true
	}
	return false
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[ast.Unparen(e)]; ok {
		return tv.IsNil()
	}
	return false
}

// parentMap records each node's syntactic parent within root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
