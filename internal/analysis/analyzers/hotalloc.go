package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"logicregression/internal/analysis"
	"logicregression/internal/analysis/astutil"
	"logicregression/internal/analysis/flow"
)

// HotAlloc enforces the hot-path allocation contract: a function whose doc
// comment carries //logicreg:hotpath must not allocate on any path that can
// reach a normal return. The transfer function is escape-style and
// deliberately strict — it flags the constructs that allocate or are likely
// to once the optimizer gives up, rather than trying to replicate the
// compiler's escape analysis exactly:
//
//   - make / new / append and slice, map, or &composite literals;
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - interface boxing: a concrete value passed where an interface is
//     expected, converted to an interface, or a variadic call (the
//     argument slice allocates);
//   - closures (function literals) and method values;
//   - defer inside a loop (heap-allocated defer record per iteration);
//   - calls the analysis cannot vouch for: indirect calls, and calls into
//     packages outside a small no-alloc allowlist (sync, sync/atomic,
//     math/bits, time, internal/bitvec).
//
// Same-package callees are resolved by bottom-up summary over the call
// graph, so a hotpath kernel may call local helpers freely as long as the
// whole tree stays allocation-free. Cross-package callees are resolved
// through the run's facts: every module package exports an AllocFree fact
// on each exported function its summary proves allocation-free, before any
// package that imports it is analyzed, and a hot-path call into another
// module package is vouched for when the callee carries that fact — the
// static allowlist below remains only for packages outside the module
// (whose facts are never computed). Blocks that can only reach the CFG's
// panic exit are cold: a fmt.Sprintf feeding a bounds-check panic is fine.
// Genuine exceptions (amortized growth of reused scratch) are annotated
// with `//logicreg:allow hotalloc <reason>`.
// TestHotpathGcflagsCrossCheck holds the same bodies to the escapes
// `go build -gcflags=-m` reports on their lines; the callees are this
// analyzer's alone.
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags heap allocations, interface boxing, closures, defer-in-loop, " +
		"and unvouched calls on the non-panic paths of //logicreg:hotpath " +
		"functions, with bottom-up summaries for same-package callees and " +
		"AllocFree facts for cross-package ones",
	Run: runHotAlloc,
}

// An AllocFree fact marks an exported function whose bottom-up summary
// found no allocation on any hot (non-panic) path — or whose allocations
// are all reviewed `//logicreg:allow hotalloc` exceptions, which the
// contract treats as vouched (amortized growth of reused scratch). Hot
// paths in dependent packages may call it freely.
type AllocFree struct{}

// AFact marks AllocFree as a fact type.
func (*AllocFree) AFact() {}

// hotPathAllowedPkgs are the imported packages hot paths may call into:
// their exported operations are allocation-free (or runtime-managed, for
// sync). internal/bitvec is the repo's own word-kernel package; its
// exported surface is itself under hotpath contract.
var hotPathAllowedPkgs = map[string]bool{
	"sync":                            true,
	"sync/atomic":                     true,
	"math/bits":                       true,
	"time":                            true,
	"logicregression/internal/bitvec": true,
}

// An allocSite is one reason a function is not allocation-free.
type allocSite struct {
	pos  token.Pos
	what string
}

// A funcScan is the intrinsic (callee-independent) scan of one body.
type funcScan struct {
	allocs []allocSite
	// localCalls are hot-path call sites into same-package declared
	// functions, to be judged by summary.
	localCalls []localCall
}

type localCall struct {
	pos    token.Pos
	callee *types.Func
}

func runHotAlloc(pass *analysis.Pass) error {
	info := pass.TypesInfo
	graph := flow.BuildCallGraph(pass.Files, info)
	sup := suppressedLines(pass, "hotalloc")

	// Intrinsic scans once per declared function.
	scans := make(map[*flow.CallNode]*funcScan)
	for _, n := range graph.Order {
		scans[n] = scanHotBody(pass, n.Decl.Body, sup)
	}

	// Bottom-up summaries: the first reason (if any) each function may
	// allocate on a hot path, folding in same-package callees.
	summary := make(map[*flow.CallNode]*allocSite)
	graph.Fixpoint(func(n *flow.CallNode) bool {
		if summary[n] != nil {
			return false
		}
		sc := scans[n]
		if len(sc.allocs) > 0 {
			summary[n] = &sc.allocs[0]
			return true
		}
		for _, lc := range sc.localCalls {
			callee := graph.Nodes[lc.callee]
			if cs := summary[callee]; cs != nil {
				summary[n] = &allocSite{pos: lc.pos,
					what: "calls " + lc.callee.Name() + ", which may allocate (" + cs.what + ")"}
				return true
			}
		}
		return false
	})

	// Report only inside marked functions; everything else just feeds the
	// summaries.
	hotMarked := make(map[*types.Func]bool)
	for _, n := range graph.Order {
		if isHotpath(n.Decl) {
			hotMarked[n.Fn] = true
		}
	}
	for _, n := range graph.Order {
		if !hotMarked[n.Fn] {
			continue
		}
		sc := scans[n]
		for _, a := range sc.allocs {
			pass.Reportf(a.pos, "%s is marked //logicreg:hotpath but %s",
				n.Fn.Name(), a.what)
		}
		for _, lc := range sc.localCalls {
			if hotMarked[lc.callee] {
				continue // the callee is under its own contract and report
			}
			if cs := summary[graph.Nodes[lc.callee]]; cs != nil {
				pass.Reportf(lc.pos,
					"%s is marked //logicreg:hotpath but calls %s, which may allocate (%s at %s)",
					n.Fn.Name(), lc.callee.Name(), cs.what,
					pass.Fset.Position(cs.pos).String())
			}
		}
	}

	// Publish the clean summaries: an exported function with no
	// allocation evidence is vouched for dependents' hot paths
	// (ExportObjectFact skips what a dependent cannot name).
	for _, n := range graph.Order {
		if summary[n] == nil {
			pass.ExportObjectFact(n.Fn, &AllocFree{})
		}
	}
	return nil
}

// scanHotBody collects the intrinsic allocation evidence of one body,
// ignoring anything on cold (panic-only) paths and anything suppressed.
func scanHotBody(pass *analysis.Pass, body *ast.BlockStmt, sup map[string]bool) *funcScan {
	info := pass.TypesInfo
	sc := &funcScan{}
	g := flow.New(body, info)
	cold := g.ColdBlocks()
	cyc := g.CycleBlocks()
	pkg := pass.Pkg

	add := func(pos token.Pos, what string) {
		if !suppressed(pass, sup, pos) {
			sc.allocs = append(sc.allocs, allocSite{pos: pos, what: what})
		}
	}

	for _, b := range g.Blocks {
		if cold[b] {
			continue
		}
		for _, node := range b.Nodes {
			root := node
			if r, ok := node.(*ast.RangeStmt); ok {
				// The header's own blocks hold only the range expression;
				// the body occupies separate blocks.
				root = r.X
			}
			if d, ok := node.(*ast.DeferStmt); ok && cyc[b] {
				add(d.Pos(), "defers inside a loop (a heap-allocated defer record per iteration)")
			}
			ast.Inspect(root, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncLit:
					add(x.Pos(), "allocates a closure (function literal)")
					return false
				case *ast.CallExpr:
					scanHotCall(pass, pkg, x, sc, add)
				case *ast.CompositeLit:
					if t := info.TypeOf(x); t != nil {
						switch t.Underlying().(type) {
						case *types.Slice, *types.Map:
							add(x.Pos(), "allocates a composite literal")
						}
					}
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						if _, isLit := astutil.Unparen(x.X).(*ast.CompositeLit); isLit {
							add(x.Pos(), "allocates (&composite literal escapes to the heap)")
						}
					}
				case *ast.BinaryExpr:
					if x.Op == token.ADD {
						if t := info.TypeOf(x); t != nil {
							if bt, ok := t.Underlying().(*types.Basic); ok && bt.Info()&types.IsString != 0 {
								add(x.Pos(), "concatenates strings, which allocates")
							}
						}
					}
				case *ast.SelectorExpr:
					if s, ok := info.Selections[x]; ok && s.Kind() == types.MethodVal {
						if !calledSelector(root, x) {
							add(x.Pos(), "allocates a bound method value")
						}
					}
				}
				return true
			})
		}
	}
	return sc
}

// scanHotCall classifies one call on a hot path.
func scanHotCall(pass *analysis.Pass, pkg *types.Package, call *ast.CallExpr, sc *funcScan, add func(token.Pos, string)) {
	info := pass.TypesInfo
	// Conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) != 1 {
			return
		}
		argT := info.TypeOf(call.Args[0])
		if types.IsInterface(target.Underlying()) && argT != nil && !types.IsInterface(argT.Underlying()) {
			add(call.Pos(), "boxes a value into an interface")
			return
		}
		if conversionAllocates(target, argT) {
			add(call.Pos(), "converts between string and byte/rune slices, which allocates")
		}
		return
	}
	// Builtins.
	if id, ok := astutil.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				add(call.Pos(), "calls "+id.Name+", which allocates")
			case "append":
				add(call.Pos(), "calls append, which may grow and allocate")
			}
			return
		}
	}
	fn := astutil.CalleeFunc(info, call)
	if fn == nil {
		add(call.Pos(), "makes an indirect call, which the allocation contract cannot vouch for")
		return
	}
	// Boxing and variadic packing at the call boundary, judged against the
	// callee's signature (applies to local and imported callees alike).
	if sig, ok := fn.Type().(*types.Signature); ok {
		checkCallBoxing(info, call, sig, add)
	}
	fnPkg := fn.Pkg()
	if fnPkg == nil {
		return // universe-scope methods (error.Error): no allocation
	}
	// Same-package callees are judged by summary; imported ones by fact,
	// then allowlist.
	if fnPkg == pkg {
		sc.localCalls = append(sc.localCalls, localCall{pos: call.Pos(), callee: fn})
		return
	}
	if pass.ImportObjectFact(fn, &AllocFree{}) {
		return
	}
	if !hotPathAllowedPkgs[fnPkg.Path()] {
		add(call.Pos(), "calls "+fnPkg.Name()+"."+fn.Name()+
			", outside the hot-path allowlist (sync, sync/atomic, math/bits, time, bitvec) "+
			"and carrying no allocation-free fact")
	}
}

// checkCallBoxing flags concrete values passed in interface positions and
// variadic packing.
func checkCallBoxing(info *types.Info, call *ast.CallExpr, sig *types.Signature, add func(token.Pos, string)) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // forwarding an existing slice: no packing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			if i == params.Len()-1 {
				add(call.Pos(), "makes a variadic call, which allocates the argument slice")
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		argT := info.TypeOf(arg)
		if argT == nil {
			continue
		}
		if basic, ok := argT.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
			continue
		}
		if types.IsInterface(pt.Underlying()) && !types.IsInterface(argT.Underlying()) {
			add(arg.Pos(), "boxes a concrete value into an interface argument")
		}
	}
}

// conversionAllocates reports string<->[]byte/[]rune conversions.
func conversionAllocates(target, arg types.Type) bool {
	if arg == nil {
		return false
	}
	return stringish(target) && sliceish(arg) || sliceish(target) && stringish(arg)
}

func stringish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func sliceish(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch e.Kind() {
	case types.Byte, types.Rune:
		return true
	}
	return false
}

// calledSelector reports whether sel appears as the function operand of a
// call within root — a called method is not a method value.
func calledSelector(root ast.Node, sel *ast.SelectorExpr) bool {
	called := false
	ast.Inspect(root, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok && astutil.Unparen(call.Fun) == sel {
			called = true
		}
		return true
	})
	return called
}
