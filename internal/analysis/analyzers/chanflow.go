package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"logicregression/internal/analysis"
	"logicregression/internal/analysis/astutil"
	"logicregression/internal/analysis/flow"
)

// ChanFlow checks channel lifecycle discipline flow-sensitively, per
// function:
//
//   - close of a channel that may already be closed on some path (including
//     a second `defer close(ch)`, or a body close followed by a deferred
//     one) — a double close panics;
//   - send on a channel that may already be closed — panics;
//   - a naked (non-select) send on a channel this function provably made
//     unbuffered, which blocks forever if the receiver is gone. Such sends
//     need a buffer sized to the fan-out, or a select with a cancellation
//     escape.
//
// Closes through same-package helpers (`func stop(ch chan int) { close(ch) }`)
// are resolved by bottom-up summary over the call graph. State is tracked
// per rendered channel expression, like locksafe's lock keys; re-making a
// channel resets its state. The analysis is deliberately function-local
// beyond those summaries: cross-goroutine protocols (a mutex ordering a
// close against sends elsewhere) are out of scope and not flagged. Branch
// correlations are not modeled: a close under `if stop` and a send under
// `if !stop` are reported, because the lattice joins paths without their
// conditions.
var ChanFlow = &analysis.Analyzer{
	Name: "chanflow",
	Doc: "flags possible double closes, sends on possibly-closed channels, " +
		"and blocking sends on provably unbuffered channels with no select " +
		"or cancellation escape",
	Run: runChanFlow,
}

// closedState maps a channel's rendered expression to the position of the
// earliest close that may have happened on some path here.
type closedState map[string]token.Pos

// chanLattice instantiates the forward solver for the may-be-closed
// analysis. Findings are accumulated (keyed by position, since Transfer
// may run over a block several times) and reported after the solve.
type chanLattice struct {
	info     *types.Info
	fset     *token.FileSet
	closers  map[*types.Func][]bool
	findings map[token.Pos]string
}

func (l *chanLattice) Bottom() closedState { return nil }
func (l *chanLattice) Entry() closedState  { return nil }

func (l *chanLattice) Join(a, b closedState) closedState {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(closedState, len(a)+len(b))
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

func (l *chanLattice) Equal(a, b closedState) bool {
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

func (l *chanLattice) finding(pos token.Pos, msg string) {
	if _, ok := l.findings[pos]; !ok {
		l.findings[pos] = msg
	}
}

func (l *chanLattice) Transfer(b *flow.Block, in closedState) closedState {
	out := l.Join(in, nil)
	if out == nil {
		out = make(closedState)
	}
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ast.ExprStmt:
			l.applyCall(n.X, out)
		case *ast.SendStmt:
			key := renderExpr(l.fset, n.Chan)
			if pos, closed := out[key]; closed {
				l.finding(n.Arrow, "send on "+key+", which may already be closed (closed at "+
					l.fset.Position(pos).String()+"); a send on a closed channel panics")
			}
		case *ast.AssignStmt:
			// Any rebinding of a channel expression resets its state: a
			// freshly made (or newly assigned) channel is not closed.
			for _, lhs := range n.Lhs {
				delete(out, renderExpr(l.fset, lhs))
			}
		}
	}
	return out
}

// applyCall folds one call into the closed set: the close builtin, or a
// same-package helper summarized as closing one of its channel parameters.
func (l *chanLattice) applyCall(e ast.Expr, out closedState) {
	call, ok := astutil.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	if astutil.IsBuiltin(l.info, call, "close") && len(call.Args) == 1 {
		l.close(out, renderExpr(l.fset, call.Args[0]), call.Pos())
		return
	}
	fn := astutil.CalleeFunc(l.info, call)
	closes, ok := l.closers[fn]
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if i < len(closes) && closes[i] {
			l.close(out, renderExpr(l.fset, arg), call.Pos())
		}
	}
}

func (l *chanLattice) close(out closedState, key string, pos token.Pos) {
	if prev, closed := out[key]; closed {
		l.finding(pos, "close of "+key+", which may already be closed (closed at "+
			l.fset.Position(prev).String()+"); a double close panics")
		return
	}
	out[key] = pos
}

func runChanFlow(pass *analysis.Pass) error {
	info := pass.TypesInfo
	graph := flow.BuildCallGraph(pass.Files, info)
	sup := suppressedLines(pass, "chanflow")

	// Bottom-up summary: which channel parameters does each function close
	// (directly or through same-package callees)?
	closers := make(map[*types.Func][]bool)
	for _, n := range graph.Order {
		sig, ok := n.Fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		closers[n.Fn] = make([]bool, sig.Params().Len())
	}
	graph.Fixpoint(func(n *flow.CallNode) bool {
		sums := closers[n.Fn]
		paramIdx := make(map[types.Object]int)
		sig := n.Fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			if _, isChan := sig.Params().At(i).Type().Underlying().(*types.Chan); isChan {
				paramIdx[sig.Params().At(i)] = i
			}
		}
		changed := false
		mark := func(e ast.Expr) {
			id, ok := astutil.Unparen(e).(*ast.Ident)
			if !ok {
				return
			}
			if i, ok := paramIdx[info.Uses[id]]; ok && !sums[i] {
				sums[i] = true
				changed = true
			}
		}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if astutil.IsBuiltin(info, call, "close") && len(call.Args) == 1 {
				mark(call.Args[0])
				return true
			}
			callee := astutil.CalleeFunc(info, call)
			calleeSums, ok := closers[callee]
			if !ok {
				return true
			}
			for i, arg := range call.Args {
				if i < len(calleeSums) && calleeSums[i] {
					mark(arg)
				}
			}
			return true
		})
		return changed
	})

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Channel buffering and select membership are properties of the
			// whole declaration, shared by its nested literals.
			unbuffered := unbufferedChans(info, fd.Body)
			comms := selectComms(fd.Body)
			checkChanBody(pass, fd.Body, closers, unbuffered, comms, sup)
		}
	}
	return nil
}

// checkChanBody runs the closed-channel lattice and the blocking-send scan
// over one body, then recurses into its function literals (each literal is
// its own function for flow purposes, but shares the enclosing channel
// classifications).
func checkChanBody(pass *analysis.Pass, body *ast.BlockStmt,
	closers map[*types.Func][]bool, unbuffered map[types.Object]bool,
	comms map[ast.Stmt]bool, sup map[string]bool) {

	lat := &chanLattice{
		info:     pass.TypesInfo,
		fset:     pass.Fset,
		closers:  closers,
		findings: make(map[token.Pos]string),
	}
	g := flow.New(body, pass.TypesInfo)
	sol := flow.Forward[closedState](g, lat)
	if sol.Converged {
		// Deferred closes run at exit: a second deferred close of the same
		// channel, or a deferred close of one already closed on some path
		// to a return, panics during unwinding.
		exit := lat.Join(sol.In[g.Exit], nil)
		if exit == nil {
			exit = make(closedState)
		}
		for _, d := range g.Defers {
			call := d.Call
			if astutil.IsBuiltin(pass.TypesInfo, call, "close") && len(call.Args) == 1 {
				lat.close(exit, renderExpr(pass.Fset, call.Args[0]), d.Pos())
			}
		}
		positions := make([]token.Pos, 0, len(lat.findings))
		for pos := range lat.findings {
			positions = append(positions, pos)
		}
		sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
		for _, pos := range positions {
			if !suppressed(pass, sup, pos) {
				pass.Reportf(pos, "%s", lat.findings[pos])
			}
		}
	}

	// Blocking sends: a naked send outside any select, on a channel every
	// one of whose make sites in this declaration is unbuffered.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n != nil {
			return false // literals get their own walk below
		}
		send, ok := n.(*ast.SendStmt)
		if !ok || comms[send] {
			return true
		}
		id, ok := astutil.Unparen(send.Chan).(*ast.Ident)
		if !ok {
			return true
		}
		if unbuffered[pass.TypesInfo.Uses[id]] && !suppressed(pass, sup, send.Arrow) {
			pass.Reportf(send.Arrow,
				"blocking send on unbuffered channel %s with no select or cancellation escape; "+
					"if every receiver can exit early this goroutine leaks — buffer the channel "+
					"to the fan-out or send inside a select with a cancel case",
				id.Name)
		}
		return true
	})

	for _, lit := range flow.FuncLits(body) {
		checkChanBody(pass, lit.Body, closers, unbuffered, comms, sup)
	}
}

// unbufferedChans classifies the channel variables of one declaration: a
// variable is in the result only if every assignment to it in the body is
// a make with no capacity (or a constant zero capacity). Parameters,
// fields, and variables with any other assignment stay out — unknown
// buffering is never flagged.
func unbufferedChans(info *types.Info, body ast.Node) map[types.Object]bool {
	unbuffered := make(map[types.Object]bool)
	disqualified := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := astutil.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := objectOfIdent(info, id)
			if obj == nil {
				continue
			}
			if _, isChan := obj.Type().Underlying().(*types.Chan); !isChan {
				continue
			}
			if i >= len(assign.Rhs) {
				disqualified[obj] = true // multi-value assignment: unknown
				continue
			}
			switch buffering(info, assign.Rhs[i]) {
			case "unbuffered":
				unbuffered[obj] = true
			default:
				disqualified[obj] = true
			}
		}
		return true
	})
	for obj := range disqualified {
		delete(unbuffered, obj)
	}
	return unbuffered
}

// buffering classifies the channel expression e makes: "unbuffered",
// "buffered", or "unknown".
func buffering(info *types.Info, e ast.Expr) string {
	call, ok := astutil.Unparen(e).(*ast.CallExpr)
	if !ok || !astutil.IsBuiltin(info, call, "make") || len(call.Args) == 0 {
		return "unknown"
	}
	t := info.TypeOf(call.Args[0])
	if t == nil {
		return "unknown"
	}
	if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return "unknown"
	}
	if len(call.Args) < 2 {
		return "unbuffered"
	}
	if tv, ok := info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
		return "unbuffered"
	}
	return "buffered"
}

// selectComms collects the comm statements of every select in body: sends
// and receives that appear as select cases never block unconditionally.
func selectComms(body ast.Node) map[ast.Stmt]bool {
	comms := make(map[ast.Stmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				comms[cc.Comm] = true
			}
		}
		return true
	})
	return comms
}

func objectOfIdent(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
