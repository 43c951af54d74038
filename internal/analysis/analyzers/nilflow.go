package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"logicregression/internal/analysis"
	"logicregression/internal/analysis/astutil"
	"logicregression/internal/analysis/flow"
)

// NilFlow flags dereference-style uses of a call result on paths where the
// paired error result is proven non-nil — the
// `v, err := open(...); if err != nil { return v.Close() }` class of bug:
// by the function's own contract, v may be nil exactly when err is not.
//
// It is a must-analysis on the forward solver. A local holds a call's
// result until it is assigned anything but a copy of it, and the error is
// proven non-nil only if every path to the use took an `err != nil` edge
// (or the false edge of `err == nil`) since the call last ran. So a
// reassignment (`v = fallback()`) ends the value's liability, and a check
// in one arm proves nothing after the arms merge. Only nilable result types
// (pointers, interfaces, slices, maps, funcs, chans) paired with exactly
// one error result in the same assignment are considered, and only uses
// that panic on nil (field/method selection through a pointer or
// interface, dereference, slice indexing, calling) are flagged.
var NilFlow = &analysis.Analyzer{
	Name: "nilflow",
	Doc: "flags uses of a call result that may be nil because every path " +
		"to the use took the paired err != nil branch",
	Run: runNilFlow,
}

// nilState is nilflow's must-state at one program point; nil is the
// unreachable state, the identity of the join.
type nilState struct {
	// holds[i] is the call whose result tracked local i still holds.
	holds []*ast.CallExpr
	// proven holds the error checks passed on every path since their
	// call last ran.
	proven map[nilProof]bool
}

// A nilProof says the condition at cond proved call's error non-nil.
type nilProof struct {
	call *ast.CallExpr
	cond token.Pos
}

func (s *nilState) clone() *nilState {
	out := &nilState{holds: slices.Clone(s.holds)}
	for p := range s.proven {
		out.prove(p)
	}
	return out
}

func (s *nilState) prove(p nilProof) {
	if s.proven == nil {
		s.proven = make(map[nilProof]bool)
	}
	s.proven[p] = true
}

type nilLattice struct {
	locals *flow.Locals
	// errOf maps each call whose assignment pairs nilable results with
	// exactly one error result to the error variable's name.
	errOf map[*ast.CallExpr]string
}

func (l *nilLattice) Bottom() *nilState { return nil }

func (l *nilLattice) Entry() *nilState {
	return &nilState{holds: make([]*ast.CallExpr, len(l.locals.Vars))}
}

func (l *nilLattice) Join(a, b *nilState) *nilState {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := l.Entry()
	for i, c := range a.holds {
		if c == b.holds[i] {
			out.holds[i] = c
		}
	}
	for p := range a.proven {
		if b.proven[p] {
			out.prove(p)
		}
	}
	return out
}

func (l *nilLattice) Equal(a, b *nilState) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.proven) != len(b.proven) || !slices.Equal(a.holds, b.holds) {
		return false
	}
	for p := range a.proven {
		if !b.proven[p] {
			return false
		}
	}
	return true
}

func (l *nilLattice) Transfer(b *flow.Block, in *nilState) *nilState {
	if in == nil {
		return nil
	}
	out := in.clone()
	for _, n := range b.Nodes {
		l.transferNode(n, out)
	}
	return out
}

// FlowBranch proves a call's error non-nil on the true edge of `err != nil`
// and the false edge of `err == nil`, seen through &&, ||, ! and parens.
func (l *nilLattice) FlowBranch(b *flow.Block, succIdx int, out *nilState) *nilState {
	if out == nil {
		return nil
	}
	res := out
	eachFact(b.Cond, succIdx == 0, func(cond ast.Expr, truth bool) {
		be, ok := cond.(*ast.BinaryExpr)
		if !ok || (be.Op != token.NEQ && be.Op != token.EQL) || (be.Op == token.NEQ) != truth {
			return
		}
		errSide := be.X
		if isNilIdent(l.locals.Info, be.X) {
			errSide = be.Y
		} else if !isNilIdent(l.locals.Info, be.Y) {
			return
		}
		i := l.locals.Of(errSide)
		if i < 0 || out.holds[i] == nil || !isErrorType(l.locals.Vars[i].Type()) {
			return
		}
		if res == out {
			res = out.clone()
		}
		res.prove(nilProof{out.holds[i], cond.Pos()})
	})
	return res
}

// eachFact calls fn for every atomic condition known on the edge where
// cond evaluated to truth: && on the true edge and || on the false edge
// decompose, ! flips the truth, and parentheses are transparent.
func eachFact(cond ast.Expr, truth bool, fn func(ast.Expr, bool)) {
	cond = astutil.Unparen(cond)
	switch e := cond.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			eachFact(e.X, !truth, fn)
			return
		}
	case *ast.BinaryExpr:
		if e.Op == token.LAND && truth || e.Op == token.LOR && !truth {
			eachFact(e.X, truth, fn)
			eachFact(e.Y, truth, fn)
			return
		}
	}
	fn(cond, truth)
}

func (l *nilLattice) transferNode(n ast.Node, s *nilState) {
	flow.EachAssign(n, func(a flow.Assign) {
		// Every right-hand side reads the state before the assignment.
		held := make([]*ast.CallExpr, len(a.Lhs))
		var call *ast.CallExpr
		if len(a.Rhs) == 1 {
			call, _ = astutil.Unparen(a.Rhs[0]).(*ast.CallExpr)
		}
		if _, paired := l.errOf[call]; paired {
			// The call runs again: its earlier checks no longer hold,
			// and each tracked target holds one of its new results.
			for p := range s.proven {
				if p.call == call {
					delete(s.proven, p)
				}
			}
			for i := range held {
				held[i] = call
			}
		} else if len(a.Rhs) == len(a.Lhs) && (a.Tok == token.DEFINE || a.Tok == token.ASSIGN || a.Tok == token.VAR) {
			// A copy of a local of the same type inherits what it
			// holds; any other assignment clears its target.
			for i, rhs := range a.Rhs {
				j, k := l.locals.Of(rhs), l.locals.Of(a.Lhs[i])
				if j >= 0 && k >= 0 && types.Identical(l.locals.Vars[j].Type(), l.locals.Vars[k].Type()) {
					held[i] = s.holds[j]
				}
			}
		}
		for i, lhs := range a.Lhs {
			if k := l.locals.Of(lhs); k >= 0 {
				s.holds[k] = held[i]
			}
		}
	})
}

func runNilFlow(pass *analysis.Pass) error {
	sup := suppressedLines(pass, "nilflow")
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if err := checkNilFlowFunc(pass, fd, sup); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func checkNilFlowFunc(pass *analysis.Pass, fd *ast.FuncDecl, sup map[string]bool) error {
	info := pass.TypesInfo
	lat := &nilLattice{locals: flow.NewLocals(fd, info), errOf: make(map[*ast.CallExpr]string)}
	g := flow.New(fd.Body, info)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			flow.EachAssign(n, lat.addPair)
		}
	}
	if len(lat.errOf) == 0 {
		return nil
	}
	sol := flow.Forward[*nilState](g, lat)
	if !sol.Converged {
		return fmt.Errorf("nilflow: %s: solver did not converge", pass.Fset.Position(fd.Pos()))
	}

	parents := parentMap(fd.Body)
	for _, b := range g.Blocks {
		if sol.In[b] == nil {
			continue
		}
		s := sol.In[b].clone()
		for _, n := range b.Nodes {
			eachUse(n, func(id *ast.Ident) {
				i := lat.locals.Of(id)
				if i < 0 || s.holds[i] == nil || isErrorType(lat.locals.Vars[i].Type()) ||
					!isNilable(lat.locals.Vars[i].Type()) || !riskyNilUse(info, parents, id) {
					return
				}
				call, checked := s.holds[i], token.NoPos
				for p := range s.proven {
					if p.call == call && (checked == token.NoPos || p.cond < checked) {
						checked = p.cond
					}
				}
				if checked != token.NoPos && !suppressed(pass, sup, id.Pos()) {
					pass.Reportf(id.Pos(),
						"%s may be nil here: this path is only taken when %s != nil "+
							"(checked at %s), and the two come from the same call",
						id.Name, lat.errOf[call], pass.Fset.Position(checked))
				}
			})
			lat.transferNode(n, s)
		}
	}
	return nil
}

// addPair records a tuple call assignment whose tracked targets are
// exactly one error and at least one nilable result.
func (l *nilLattice) addPair(a flow.Assign) {
	if a.Tok == token.RANGE || len(a.Lhs) < 2 || len(a.Rhs) != 1 {
		return
	}
	call, ok := astutil.Unparen(a.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	errName, errs, results := "", 0, 0
	for _, lhs := range a.Lhs {
		i := l.locals.Of(lhs)
		if i < 0 {
			continue
		}
		switch v := l.locals.Vars[i]; {
		case isErrorType(v.Type()):
			errName, errs = v.Name(), errs+1
		case isNilable(v.Type()):
			results++
		}
	}
	if errs == 1 && results > 0 {
		l.errOf[call] = errName
	}
}

// eachUse calls fn for every identifier a top-level CFG node reads,
// skipping function literals (they are their own functions) and, for a
// range statement, everything but the ranged operand (its body has its own
// blocks).
func eachUse(n ast.Node, fn func(*ast.Ident)) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		n = rs.X
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			fn(m)
		}
		return true
	})
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
