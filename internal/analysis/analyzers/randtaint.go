package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"logicregression/internal/analysis"
	"logicregression/internal/analysis/astutil"
	"logicregression/internal/analysis/flow"
)

// RandTaint holds the determinism contract: every random generator must be
// derived from the plumbed seed, or fixed-seed runs stop being
// byte-identical. It reports
//
//   - any use of a math/rand (or v2) package-level function other than a
//     constructor — rand.Intn, rand.Shuffle, or a reference to one passed
//     as a value — since those draw from the process-global source;
//   - a constructor (every one of them is a seed sink) whose argument
//     textually contains a time.Now call, as in
//     rand.NewSource(time.Now().UnixNano());
//   - a constructor fed an entropy-tainted value. Clock reads, package-level
//     draws, and crypto/rand reads are tainted, and the taint is tracked
//     through variables (with strong updates, so overwriting a clock value
//     with the plumbed seed is clean), struct fields, function returns
//     (bottom-up summaries over the package call graph), and closures.
//
// One line draws at most one report.
var RandTaint = &analysis.Analyzer{
	Name: "randtaint",
	Doc: "flags draws from the process-global math/rand source and rand " +
		"generators seeded from the clock or another nondeterministic value, " +
		"tracking the seed through variables, fields, returns, and closures; " +
		"all randomness must flow from the plumbed seed",
	Run: runRandTaint,
}

// randConstructors are the math/rand (and v2) package-level functions that
// build an explicit generator instead of drawing from the global one. Each
// takes a seed or a generator, so each is a seed sink.
var randConstructors = map[string]bool{
	"New":        true, // math/rand, math/rand/v2
	"NewSource":  true, // math/rand
	"NewZipf":    true, // math/rand, math/rand/v2
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// packageFunc returns obj as a package-level function of one of the
// packages at paths, or nil. Resolving identifiers through it matches calls
// and references alike, package-qualified or dot-imported.
func packageFunc(obj types.Object, paths ...string) *types.Func {
	fn, _ := obj.(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	for _, p := range paths {
		if fn.Pkg().Path() == p {
			return fn
		}
	}
	return nil
}

var randPaths = []string{"math/rand", "math/rand/v2"}

// isRandSink reports whether call invokes a math/rand constructor.
func isRandSink(info *types.Info, call *ast.CallExpr) bool {
	fn := packageFunc(astutil.CalleeFunc(info, call), randPaths...)
	return fn != nil && randConstructors[fn.Name()]
}

// isEntropyCall reports whether call's result is nondeterministic entropy:
// a clock read, a package-level math/rand draw, or any crypto/rand call.
func isEntropyCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := astutil.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg := astutil.ImportedPkg(info, sel)
	if pkg == nil {
		return false
	}
	switch pkg.Imported().Path() {
	case "time":
		return sel.Sel.Name == "Now"
	case "math/rand", "math/rand/v2":
		// The constructors are sinks, not sources.
		return !randConstructors[sel.Sel.Name]
	case "crypto/rand":
		return true
	}
	return false
}

// containsTimeNow reports whether the expression contains a time.Now call.
func containsTimeNow(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn := packageFunc(info.Uses[id], "time"); fn != nil && fn.Name() == "Now" {
				found = true
			}
		}
		return !found
	})
	return found
}

const seededMsg = "rand source seeded from the clock or another nondeterministic value; " +
	"derive the seed from the plumbed -seed so fixed-seed runs stay byte-identical"

func runRandTaint(pass *analysis.Pass) error {
	info := pass.TypesInfo
	reported := make(map[string]bool) // "file:line" already reported
	reportOnce := func(pos token.Pos, format string, args ...any) {
		p := pass.Fset.Position(pos)
		key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
		if !reported[key] {
			reported[key] = true
			pass.Reportf(pos, format, args...)
		}
	}

	// Syntactic pass: package-level draws, and constructors seeded from a
	// literal time.Now chain (caught even where the dataflow below loses
	// the value, e.g. inside a function literal argument).
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if fn := packageFunc(info.Uses[n], randPaths...); fn != nil && !randConstructors[fn.Name()] {
					reportOnce(n.Pos(), "%s.%s draws from the process-global source; "+
						"use a *rand.Rand built from the plumbed seed", fn.Pkg().Name(), fn.Name())
				}
			case *ast.CallExpr:
				if !isRandSink(info, n) {
					return true
				}
				for _, arg := range n.Args {
					if containsTimeNow(info, arg) {
						reportOnce(n.Pos(), seededMsg)
						break
					}
				}
			}
			return true
		})
	}

	graph := flow.BuildCallGraph(pass.Files, info)

	// Package-level fixpoint: function summaries ("returns entropy") and
	// entropy-tainted objects (package vars, struct fields written from a
	// tainted value anywhere) feed back into every function until stable.
	returnsEntropy := make(map[*types.Func]bool)
	taintedObjs := make(map[types.Object]bool)

	spec := func() *flow.TaintSpec {
		return &flow.TaintSpec{
			Info:  info,
			Entry: taintedObjs,
			Source: func(e ast.Expr) bool {
				call, ok := e.(*ast.CallExpr)
				return ok && isEntropyCall(info, call)
			},
			CallTaint: func(call *ast.CallExpr, argTainted bool) bool {
				if fn := astutil.CalleeFunc(info, call); fn != nil && returnsEntropy[fn] {
					return true
				}
				// Default: taint flows through arguments and receivers
				// (covers t.UnixNano() on a tainted time, conversions,
				// and is the conservative choice at indirect calls).
				return argTainted
			},
		}
	}

	// analyzeBody solves one function body (or closure), records new
	// summary facts, and optionally reports sink hits.
	var analyzeBody func(fn *types.Func, body *ast.BlockStmt, report bool) bool
	analyzeBody = func(fn *types.Func, body *ast.BlockStmt, report bool) bool {
		changed := false
		sp := spec()
		g := flow.New(body, info)
		sol := flow.RunTaint(g, sp)
		flow.NodeTaintStates(g, sp, sol, func(n ast.Node, s flow.TaintState) {
			// Record entropy escaping into fields and package variables
			// (weak, package-global facts).
			recordEscapes(info, sp, n, s, taintedObjs, &changed)
			if !report {
				return
			}
			ast.Inspect(n, func(x ast.Node) bool {
				if _, isLit := x.(*ast.FuncLit); isLit {
					return false // closures are analyzed separately
				}
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isRandSink(info, call) {
					return true
				}
				for _, arg := range call.Args {
					if sp.ExprTaint(arg, s) {
						reportOnce(call.Pos(), seededMsg)
						break
					}
				}
				return true
			})
		})
		// Summary: does any return statement yield a tainted value?
		if fn != nil && !returnsEntropy[fn] {
			tainted := false
			flow.NodeTaintStates(g, sp, sol, func(n ast.Node, s flow.TaintState) {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return
				}
				for _, r := range ret.Results {
					if sp.ExprTaint(r, s) {
						tainted = true
					}
				}
			})
			if tainted {
				returnsEntropy[fn] = true
				changed = true
			}
		}
		// Closures: entry state already includes taintedObjs; captured
		// locals are visible because taint states use the same objects.
		// Seed each literal with the join of the enclosing function's
		// tainted locals so captures stay tainted inside.
		for _, lit := range flow.FuncLits(body) {
			outer := make(map[types.Object]bool, len(taintedObjs))
			for o := range taintedObjs {
				outer[o] = true
			}
			for _, st := range sol.Out {
				for o := range st {
					outer[o] = true
				}
			}
			saved := taintedObjs
			taintedObjs = outer
			if analyzeBody(nil, lit.Body, report) {
				changed = true
			}
			// Keep any newly discovered package-level facts (struct fields
			// have no parent scope; package vars live in the package
			// scope), drop the capture-seeded locals.
			for o := range taintedObjs {
				if saved[o] || isPackageFact(o) {
					saved[o] = true
				}
			}
			taintedObjs = saved
		}
		return changed
	}

	// Iterate summaries to a fixed point, silently; then one reporting run.
	for rounds := 0; rounds < len(graph.Order)+2; rounds++ {
		changed := false
		for _, n := range graph.Order {
			if analyzeBody(n.Fn, n.Decl.Body, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, n := range graph.Order {
		analyzeBody(n.Fn, n.Decl.Body, true)
	}
	return nil
}

// recordEscapes adds field/package-variable objects assigned a tainted
// value to the package-global tainted set.
func recordEscapes(info *types.Info, sp *flow.TaintSpec, n ast.Node,
	s flow.TaintState, global map[types.Object]bool, changed *bool) {

	assign, ok := n.(*ast.AssignStmt)
	if !ok {
		return
	}
	mark := func(obj types.Object) {
		if obj != nil && !global[obj] {
			global[obj] = true
			*changed = true
		}
	}
	for i, lhs := range assign.Lhs {
		var rhs ast.Expr
		switch {
		case i < len(assign.Rhs) && len(assign.Lhs) == len(assign.Rhs):
			rhs = assign.Rhs[i]
		case len(assign.Rhs) == 1:
			rhs = assign.Rhs[0]
		default:
			continue
		}
		if !sp.ExprTaint(rhs, s) {
			continue
		}
		switch lhs := lhs.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[lhs]; sel != nil {
				mark(sel.Obj())
			}
		case *ast.Ident:
			if obj := astutil.ObjectOf(info, lhs); obj != nil && isPackageFact(obj) {
				mark(obj)
			}
		}
	}
}

// isPackageFact reports whether taint on obj is a package-level fact worth
// carrying across functions: struct fields (no parent scope) and
// package-scope variables, but not function locals.
func isPackageFact(o types.Object) bool {
	if o.Parent() == nil {
		return true // struct field
	}
	return o.Pkg() != nil && o.Parent() == o.Pkg().Scope()
}
