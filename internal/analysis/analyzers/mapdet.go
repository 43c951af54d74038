package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"logicregression/internal/analysis"
	"logicregression/internal/analysis/astutil"
	"logicregression/internal/analysis/flow"
)

// MapDet enforces the map-order determinism contract the parallel learning
// core is held to (DESIGN.md §13): values whose order comes from a
// range-over-map or from select arrival order must not reach a returned
// slice, serialized output, or a merge position without an intervening
// sort. Concretely, inside a range over a map (or a clause of a select
// with two or more communication cases):
//
//   - appending to a slice taints that slice: it is now in iteration
//     order, and returning or serializing it later without a sort between
//     the append and the use is a finding (the canonical
//     collect-keys-then-sort idiom passes, because the sort intervenes);
//   - writing iteration-dependent values to an io.Writer / fmt stream /
//     encoder is a finding at the write (the bytes hit the output in map
//     order with no later chance to fix it);
//   - sending iteration-dependent values on a channel is a finding (the
//     receiver merges in arrival order);
//   - writing through a loop-carried counter index (s[i] = v; i++) is a
//     finding, while indexing by the map key itself (s[k] = v) is
//     deterministic and passes;
//   - accumulating into a float or string with += is a finding (neither
//     reduction is order-insensitive), while integer/bitwise accumulation
//     passes.
//
// Functions that deliberately return map-ordered slices acknowledge it
// with //logicreg:allow mapdet <reason>; the finding is suppressed but the
// function still exports an Unordered fact, and callers — in this package
// or, through the run's facts, any module package that imports it — have
// the same contract applied to the call's result: sort it before
// returning, serializing, or merging it.
var MapDet = &analysis.Analyzer{
	Name: "mapdet",
	Doc: "range-over-map and select-arrival values must not flow into " +
		"returned slices, serialized output, or merge positions without an " +
		"intervening sort; unordered-returning functions export a fact so " +
		"callers inherit the obligation",
	Run: runMapDet,
}

// An Unordered fact marks an exported function at least one of whose
// returned slices is built in map-iteration or select-arrival order. The
// caller owns the ordering obligation.
type Unordered struct{}

// AFact marks Unordered as a fact type.
func (*Unordered) AFact() {}

// sortFuncs are the stdlib entry points that establish a deterministic
// order; passing a tainted slice through any of them clears the taint.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// writeNames are method names that commit bytes to an output stream.
var writeNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

// mdRegion is one syntactic scope whose execution order is
// nondeterministic.
type mdRegion struct {
	kind string                // "map iteration" or "select arrival"
	vars map[types.Object]bool // loop key/value or received variables
	// assigned are the objects written anywhere inside the region —
	// loop-carried counters and accumulators.
	assigned map[types.Object]bool
	pos      token.Pos
	end      token.Pos
}

// mdTaint records a slice object known to be in nondeterministic order
// from taintPos onward.
type mdTaint struct {
	obj  types.Object
	pos  token.Pos
	kind string
}

// mdEvent is a position-stamped use of an object.
type mdEvent struct {
	obj types.Object
	pos token.Pos
}

// mdCallTaint is an assignment of a call result: tainted if the callee is
// known (by same-package summary or imported fact) to return unordered
// slices.
type mdCallTaint struct {
	obj    types.Object
	callee *types.Func
	pos    token.Pos
}

// mdFinding is one diagnostic candidate.
type mdFinding struct {
	pos token.Pos
	msg string
	// ret marks findings about returned values; they drive the
	// Unordered summary even when suppressed.
	ret bool
}

// mdScan is everything the evaluator needs to know about one body.
type mdScan struct {
	direct     []mdFinding // in-region sinks, final regardless of taint
	taints     []mdTaint
	callTaints []mdCallTaint
	sorts      []mdEvent
	returns    []mdEvent // object used in a return expression
	writes     []mdEvent // object serialized outside any region
	sends      []mdEvent // object sent on a channel outside any region
}

func runMapDet(pass *analysis.Pass) error {
	info := pass.TypesInfo
	graph := flow.BuildCallGraph(pass.Files, info)
	sup := suppressedLines(pass, "mapdet")

	scans := make(map[*flow.CallNode]*mdScan)
	for _, n := range graph.Order {
		scans[n] = scanMapDet(pass, n.Decl.Body)
	}

	// Bottom-up summary: does the function return an unordered slice
	// (directly, or by forwarding an unordered callee result unsorted)?
	// Suppression does not clear the summary — an allow comment
	// acknowledges the order, it does not impose one.
	unordered := make(map[*types.Func]bool)
	calleeUnordered := func(fn *types.Func) bool {
		if fn == nil {
			return false
		}
		if unordered[fn] {
			return true
		}
		return pass.ImportObjectFact(fn, &Unordered{})
	}
	graph.Fixpoint(func(n *flow.CallNode) bool {
		if unordered[n.Fn] {
			return false
		}
		if _, rets := evalMapDet(scans[n], calleeUnordered); rets {
			unordered[n.Fn] = true
			return true
		}
		return false
	})

	// Final pass: report (suppression applied) and export facts.
	for _, n := range graph.Order {
		findings, _ := evalMapDet(scans[n], calleeUnordered)
		findings = append(findings, scans[n].direct...)
		for _, f := range findings {
			if !suppressed(pass, sup, f.pos) {
				pass.Reportf(f.pos, "%s", f.msg)
			}
		}
		if unordered[n.Fn] {
			pass.ExportObjectFact(n.Fn, &Unordered{})
		}
	}
	return nil
}

// evalMapDet resolves the scan's taints against its sorts and uses,
// returning the taint-dependent findings and whether any return carries an
// unordered slice.
func evalMapDet(sc *mdScan, calleeUnordered func(*types.Func) bool) (findings []mdFinding, unorderedReturn bool) {
	type taintInfo struct {
		pos  token.Pos
		kind string
	}
	tainted := make(map[types.Object]taintInfo)
	for _, t := range sc.taints {
		if _, ok := tainted[t.obj]; !ok {
			tainted[t.obj] = taintInfo{pos: t.pos, kind: t.kind}
		}
	}
	for _, ct := range sc.callTaints {
		if calleeUnordered(ct.callee) {
			if _, ok := tainted[ct.obj]; !ok {
				tainted[ct.obj] = taintInfo{pos: ct.pos,
					kind: "the unordered order of " + ct.callee.Name() + "'s result"}
			}
		}
	}
	sortedBetween := func(obj types.Object, from, to token.Pos) bool {
		for _, s := range sc.sorts {
			if s.obj == obj && s.pos > from && s.pos < to {
				return true
			}
		}
		return false
	}
	check := func(events []mdEvent, what string, ret bool) {
		for _, e := range events {
			t, ok := tainted[e.obj]
			if !ok || e.pos <= t.pos || sortedBetween(e.obj, t.pos, e.pos) {
				continue
			}
			findings = append(findings, mdFinding{
				pos: e.pos,
				msg: e.obj.Name() + " is in " + t.kind + "; sort it before it is " + what,
				ret: ret,
			})
			if ret {
				unorderedReturn = true
			}
		}
	}
	check(sc.returns, "returned", true)
	check(sc.writes, "serialized", false)
	check(sc.sends, "sent to a merge point", false)
	return findings, unorderedReturn
}

// scanMapDet walks one function body collecting regions, taints, and uses.
func scanMapDet(pass *analysis.Pass, body *ast.BlockStmt) *mdScan {
	info := pass.TypesInfo
	sc := &mdScan{}
	var walk func(n ast.Node, region *mdRegion)

	obj := func(e ast.Expr) types.Object {
		if id, ok := astutil.Unparen(e).(*ast.Ident); ok {
			return astutil.ObjectOf(info, id)
		}
		return nil
	}
	// usesRegionVar reports whether e mentions one of the region's
	// nondeterministically-bound variables.
	usesRegionVar := func(e ast.Expr, r *mdRegion) bool {
		if r == nil {
			return false
		}
		found := false
		ast.Inspect(e, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && r.vars[astutil.ObjectOf(info, id)] {
				found = true
			}
			return true
		})
		return found
	}
	// collectObjs gathers every object mentioned in e, skipping the
	// order-insensitive len/cap projections.
	var collectObjs func(e ast.Expr) []types.Object
	collectObjs = func(e ast.Expr) []types.Object {
		var objs []types.Object
		ast.Inspect(e, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if astutil.IsBuiltin(info, call, "len") || astutil.IsBuiltin(info, call, "cap") {
					return false
				}
			}
			if id, ok := x.(*ast.Ident); ok {
				if o := astutil.ObjectOf(info, id); o != nil {
					objs = append(objs, o)
				}
			}
			return true
		})
		return objs
	}

	handleCall := func(call *ast.CallExpr, region *mdRegion) {
		fn := astutil.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		pkg, name := fn.Pkg().Name(), fn.Name()
		if byPkg, ok := sortFuncs[pkg]; ok && byPkg[name] {
			for _, arg := range call.Args {
				for _, o := range collectObjs(arg) {
					sc.sorts = append(sc.sorts, mdEvent{obj: o, pos: call.Pos()})
				}
			}
			return
		}
		isWrite := writeNames[name] && fn.Type().(*types.Signature).Recv() != nil
		isPrint := pkg == "fmt" && (strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print"))
		if !isWrite && !isPrint {
			return
		}
		if region != nil {
			for _, arg := range call.Args {
				if usesRegionVar(arg, region) {
					sc.direct = append(sc.direct, mdFinding{
						pos: call.Pos(),
						msg: "output written inside " + region.kind + " depends on its order; " +
							"collect into a slice and sort before serializing",
					})
					return
				}
			}
			return
		}
		for _, arg := range call.Args {
			for _, o := range collectObjs(arg) {
				sc.writes = append(sc.writes, mdEvent{obj: o, pos: call.Pos()})
			}
		}
	}

	handleAssign := func(a *ast.AssignStmt, region *mdRegion) {
		// Order-dependent accumulation: float or string += inside a
		// region.
		if a.Tok == token.ADD_ASSIGN && region != nil && len(a.Lhs) == 1 && len(a.Rhs) == 1 {
			if usesRegionVar(a.Rhs[0], region) {
				if t := info.TypeOf(a.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok &&
						b.Info()&(types.IsFloat|types.IsString) != 0 {
						sc.direct = append(sc.direct, mdFinding{
							pos: a.Pos(),
							msg: "accumulating " + b.String() + " values in " + region.kind +
								" order is not deterministic; accumulate into a slice and sort, " +
								"or use an order-insensitive reduction",
						})
					}
				}
			}
		}
		for i, rhs := range a.Rhs {
			if i >= len(a.Lhs) {
				break
			}
			call, ok := astutil.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			dst := obj(a.Lhs[i])
			// append under a region taints the destination slice.
			if astutil.IsBuiltin(info, call, "append") {
				if region != nil && dst != nil {
					sc.taints = append(sc.taints, mdTaint{obj: dst, pos: a.Pos(), kind: region.kind + " order"})
				}
				continue
			}
			// Assignment of a callee result: judged later against
			// summaries and facts.
			if fn := astutil.CalleeFunc(info, call); fn != nil && dst != nil {
				sc.callTaints = append(sc.callTaints, mdCallTaint{obj: dst, callee: fn, pos: a.Pos()})
			}
		}
		// Counter-indexed merge position: s[i] = v with i a loop-carried
		// counter (assigned in the region, not the map key).
		if region != nil {
			for _, lhs := range a.Lhs {
				ix, ok := astutil.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				if t := info.TypeOf(ix.X); t == nil {
					continue
				} else if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
					continue
				}
				for _, o := range collectObjs(ix.Index) {
					if region.assigned[o] && !region.vars[o] {
						sc.direct = append(sc.direct, mdFinding{
							pos: lhs.Pos(),
							msg: "write through loop-carried index " + o.Name() + " places values in " +
								region.kind + " order; index by the key or sort afterwards",
						})
						break
					}
				}
			}
		}
	}

	// assignedObjs pre-collects the objects written inside a region body.
	assignedObjs := func(n ast.Node) map[types.Object]bool {
		set := make(map[types.Object]bool)
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if o := obj(lhs); o != nil {
						set[o] = true
					}
				}
			case *ast.IncDecStmt:
				if o := obj(x.X); o != nil {
					set[o] = true
				}
			}
			return true
		})
		return set
	}

	walk = func(n ast.Node, region *mdRegion) {
		ast.Inspect(n, func(x ast.Node) bool {
			if x == nil {
				return true
			}
			if x == n {
				// The entry node itself only needs its children visited
				// unless it is a handled statement passed in directly
				// (select-clause bodies arrive one statement at a time).
				switch x.(type) {
				case *ast.AssignStmt, *ast.SendStmt, *ast.ReturnStmt, *ast.CallExpr:
				default:
					return true
				}
			}
			switch x := x.(type) {
			case *ast.RangeStmt:
				walk(x.X, region)
				t := info.TypeOf(x.X)
				if t == nil {
					return false
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					walk(x.Body, region)
					return false
				}
				inner := &mdRegion{
					kind:     "map iteration",
					vars:     make(map[types.Object]bool),
					assigned: assignedObjs(x.Body),
					pos:      x.Pos(), end: x.End(),
				}
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if e != nil {
						if o := obj(e); o != nil {
							inner.vars[o] = true
						}
					}
				}
				walk(x.Body, inner)
				return false
			case *ast.SelectStmt:
				comm := 0
				for _, c := range x.Body.List {
					if c.(*ast.CommClause).Comm != nil {
						comm++
					}
				}
				for _, c := range x.Body.List {
					cc := c.(*ast.CommClause)
					r := region
					if comm >= 2 && cc.Comm != nil {
						r = &mdRegion{
							kind:     "select arrival",
							vars:     make(map[types.Object]bool),
							assigned: assignedObjs(cc),
							pos:      x.Pos(), end: x.End(),
						}
						if a, ok := cc.Comm.(*ast.AssignStmt); ok {
							for _, lhs := range a.Lhs {
								if o := obj(lhs); o != nil {
									r.vars[o] = true
								}
							}
						}
					}
					for _, s := range cc.Body {
						walk(s, r)
					}
				}
				return false
			case *ast.AssignStmt:
				handleAssign(x, region)
			case *ast.SendStmt:
				if region != nil {
					if usesRegionVar(x.Value, region) {
						sc.direct = append(sc.direct, mdFinding{
							pos: x.Pos(),
							msg: "send inside " + region.kind + " delivers values in its order; " +
								"a downstream merge will be nondeterministic unless the receiver sorts",
						})
					}
				} else {
					for _, o := range collectObjs(x.Value) {
						sc.sends = append(sc.sends, mdEvent{obj: o, pos: x.Pos()})
					}
				}
			case *ast.ReturnStmt:
				for _, res := range x.Results {
					for _, o := range collectObjs(res) {
						sc.returns = append(sc.returns, mdEvent{obj: o, pos: x.Pos()})
					}
				}
			case *ast.CallExpr:
				handleCall(x, region)
			case *ast.FuncLit:
				// A literal's body executes with its own control flow;
				// analyze it region-free but share the scan so taints on
				// captured slices still resolve.
				walk(x.Body, nil)
				return false
			}
			return true
		})
	}
	walk(body, nil)
	return sc
}
