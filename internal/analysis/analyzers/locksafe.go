package analyzers

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"logicregression/internal/analysis"
	"logicregression/internal/analysis/astutil"
	"logicregression/internal/analysis/flow"
)

// LockSafe checks the mutex discipline flow-sensitively: every Lock (and
// successful TryLock) must be released on every path out of the function —
// normal returns and panic unwinds alike. A `defer mu.Unlock()` covers all
// subsequent exits, so it releases the lock at registration time in the
// abstraction; TryLock acquisitions are tracked branch-sensitively, so only
// the success edge holds the lock. Lock values copied by value are `go
// vet`'s copylocks check, which CI runs.
var LockSafe = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "flags locks that may still be held on some path to a return or " +
		"panic (lock copies are go vet's copylocks check)",
	Run: runLockSafe,
}

// heldState maps a lock's rendered receiver expression (e.g. "s.mu") to its
// earliest acquisition position on any path. It is a may-held analysis:
// join is union, and a lock present at an exit block means some path leaks
// it.
type heldState map[string]token.Pos

// lockLattice instantiates the forward solver; tryVars maps boolean
// variables assigned from mu.TryLock() to the lock key, so `ok :=
// mu.TryLock(); if ok { ... }` is tracked as precisely as the inline form.
type lockLattice struct {
	info    *types.Info
	fset    *token.FileSet
	tryVars map[types.Object]string
	tryPos  map[types.Object]token.Pos
}

func (l *lockLattice) Bottom() heldState { return nil }
func (l *lockLattice) Entry() heldState  { return nil }

func (l *lockLattice) Join(a, b heldState) heldState {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(heldState, len(a)+len(b))
	for k, p := range a {
		out[k] = p
	}
	for k, p := range b {
		if q, ok := out[k]; !ok || p < q {
			out[k] = p
		}
	}
	return out
}

func (l *lockLattice) Equal(a, b heldState) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func (l *lockLattice) Transfer(b *flow.Block, in heldState) heldState {
	out := l.Join(in, nil)
	if out == nil {
		out = make(heldState)
	}
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ast.ExprStmt:
			l.applyCall(n.X, out)
		case *ast.DeferStmt:
			// defer mu.Unlock() releases on every later exit; in the
			// abstraction the lock stops being leakable the moment the
			// defer is registered.
			if key, op := l.lockOp(n.Call); op == "Unlock" || op == "RUnlock" {
				delete(out, key)
			}
		}
	}
	return out
}

// FlowBranch models conditional acquisition: on the true edge of
// `if mu.TryLock()` (or `if ok` where ok came from TryLock) the lock is
// held; on the false edge it is not. Negated conditions swap the edges.
func (l *lockLattice) FlowBranch(b *flow.Block, succIdx int, out heldState) heldState {
	cond := b.Cond
	onTrue := succIdx == 0
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond = u.X
		onTrue = !onTrue
	}
	key, pos, ok := l.tryLockCond(cond)
	if !ok {
		return out
	}
	res := l.Join(out, nil)
	if res == nil {
		res = make(heldState)
	}
	if onTrue {
		if _, held := res[key]; !held {
			res[key] = pos
		}
	} else {
		delete(res, key)
	}
	return res
}

// tryLockCond recognizes a condition that reflects TryLock success: the
// call itself, or a boolean variable assigned from one.
func (l *lockLattice) tryLockCond(cond ast.Expr) (key string, pos token.Pos, ok bool) {
	switch cond := astutil.Unparen(cond).(type) {
	case *ast.CallExpr:
		if k, op := l.lockOp(cond); op == "TryLock" || op == "TryRLock" {
			return k, cond.Pos(), true
		}
	case *ast.Ident:
		if obj := astutil.ObjectOf(l.info, cond); obj != nil {
			if k, tracked := l.tryVars[obj]; tracked {
				return k, l.tryPos[obj], true
			}
		}
	}
	return "", token.NoPos, false
}

// applyCall updates the held set for a direct Lock/Unlock statement.
func (l *lockLattice) applyCall(e ast.Expr, s heldState) {
	call, ok := astutil.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	key, op := l.lockOp(call)
	switch op {
	case "Lock", "RLock":
		if _, held := s[key]; !held {
			s[key] = call.Pos()
		}
	case "Unlock", "RUnlock":
		delete(s, key)
	}
}

// lockOp recognizes a sync lock method call and returns the lock's key and
// the operation name. Non-lock calls return op == "".
func (l *lockLattice) lockOp(call *ast.CallExpr) (key, op string) {
	sel, ok := astutil.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", ""
	}
	fn := astutil.CalleeFunc(l.info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	return renderExpr(l.fset, sel.X), sel.Sel.Name
}

func renderExpr(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, e)
	return strings.Join(strings.Fields(buf.String()), " ")
}

func runLockSafe(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockBalance(pass, fd.Body)
		}
	}
	return nil
}

// checkLockBalance solves the held-lock analysis over one body and every
// function literal inside it (each literal is its own function: a closure
// that returns while holding a lock leaks it just the same).
func checkLockBalance(pass *analysis.Pass, body *ast.BlockStmt) {
	lat := &lockLattice{
		info:    pass.TypesInfo,
		fset:    pass.Fset,
		tryVars: map[types.Object]string{},
		tryPos:  map[types.Object]token.Pos{},
	}
	// Pre-pass: variables bound to a TryLock result.
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		key, op := lat.lockOp(call)
		if op != "TryLock" && op != "TryRLock" {
			return true
		}
		if id, ok := assign.Lhs[0].(*ast.Ident); ok {
			if obj := astutil.ObjectOf(pass.TypesInfo, id); obj != nil {
				lat.tryVars[obj] = key
				lat.tryPos[obj] = call.Pos()
			}
		}
		return true
	})

	g := flow.New(body, pass.TypesInfo)
	sol := flow.Forward[heldState](g, lat)
	if !sol.Converged {
		return // broken lattice would spew nonsense; stay silent
	}
	reported := map[string]bool{}
	report := func(s heldState, exitKind string) {
		for key, pos := range s {
			if reported[key] {
				continue
			}
			reported[key] = true
			pass.Reportf(pos,
				"%s is locked here but may still be held at a %s; release it on every path (defer %s.Unlock() covers panics too)",
				key, exitKind, key)
		}
	}
	report(sol.In[g.Exit], "return")
	report(sol.In[g.Panic], "panic")

	for _, lit := range flow.FuncLits(body) {
		checkLockBalance(pass, lit.Body)
	}
}
