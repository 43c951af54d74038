// Package ssa builds a pruned SSA form for local variables on top of the
// CFGs in internal/analysis/flow, with dominator-chain branch facts and
// one sparse analysis over it: SCCP (sparse conditional constant
// propagation with branch pruning).
//
// The construction is deliberately scoped to what repo analyzers need:
//
//   - Only "SSA-able" variables are tracked: parameters, named results,
//     the receiver, and local variables whose address is never taken and
//     that are never assigned inside a nested function literal. Uses of
//     anything else stay opaque.
//   - Values are use-def edges over the AST, not a new instruction set:
//     each definition remembers its defining expression (or call result,
//     range clause, compound assignment, ...) and every resolved use-site
//     identifier maps back to the reaching Value.
//   - Phi nodes are pruned with a block-local liveness pass, so only
//     merge points where a variable is live-in get a phi.
//
// Soundness notes (also see DESIGN.md §15): values reachable through
// pointers, globals, captured variables, or field chains are NOT in SSA
// form, and nothing here reasons about them.
package ssa

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"logicregression/internal/analysis/flow"
)

// ValueKind says how a Value was defined.
type ValueKind int

const (
	// KindParam is a parameter or receiver: unknown on entry.
	KindParam ValueKind = iota
	// KindZero is a declaration without initializer (including named
	// results): the zero value of its type.
	KindZero
	// KindExpr is a plain assignment x = <Rhs> or x := <Rhs>.
	KindExpr
	// KindCompound is x op= <Rhs>, x++ or x--: Op applied to Prev and Rhs
	// (Rhs is nil for ++/--, meaning the constant 1).
	KindCompound
	// KindCall is one result of a multi-value call assignment
	// x, y, err := f(...): Call is the call, ResIdx the result index.
	KindCall
	// KindRangeIndex is the key of a range over a slice, array, string,
	// or integer: non-negative, and below the ranged length while the
	// body runs.
	KindRangeIndex
	// KindPhi is a phi at a join point; Phi lists the incoming edges.
	KindPhi
	// KindOpaque is any definition the package does not model (comma-ok,
	// range element, type-switch binding, receive, ...).
	KindOpaque
)

// A Value is one SSA definition of a tracked variable.
type Value struct {
	ID    int
	Var   *types.Var
	Kind  ValueKind
	Block *flow.Block // defining block; nil for params/zeros at entry
	Site  ast.Node    // defining statement, nil for entry values

	Rhs    ast.Expr      // KindExpr, KindCompound (nil for ++/--)
	Op     token.Token   // KindCompound: ADD, SUB, MUL, ...
	Prev   *Value        // KindCompound: the previous value of Var
	Call   *ast.CallExpr // KindCall
	ResIdx int           // KindCall: index into the result tuple
	Phi    *Phi          // KindPhi
}

// A Phi merges one value per executable in-edge of its block.
type Phi struct {
	Value *Value
	Edges []PhiEdge
}

// A PhiEdge is one incoming (predecessor, value) pair. Val may be nil when
// the variable is not defined along that edge; Go's scoping rules make
// such an edge dynamically impossible (a use before any definition does
// not compile), so analyses treat nil as "unreachable operand".
type PhiEdge struct {
	Pred *flow.Block
	Val  *Value
}

// A Func is the SSA form of one function body.
type Func struct {
	Decl *ast.FuncDecl
	CFG  *flow.CFG
	Dom  *DomTree
	Info *types.Info

	// Vars lists the tracked variables, in declaration order.
	Vars []*types.Var
	// Values lists every SSA value, in creation order.
	Values []*Value
	// UseVal maps each resolved use-site identifier in the body (outside
	// nested function literals) to the value reaching it.
	UseVal map[*ast.Ident]*Value
	// UsesOf is the reverse map: every use identifier of each value.
	UsesOf map[*Value][]*ast.Ident
	// Phis lists the phi nodes placed at each block.
	Phis map[*flow.Block][]*Phi

	// NodeBlock maps each top-level statement/expression node of a block
	// to its block.
	NodeBlock map[ast.Node]*flow.Block

	tracked map[*types.Var]bool
	facts   map[*flow.Block][]Fact
}

// Build constructs the SSA form of fd's body. It returns nil when fd has
// no body or the CFG cannot be built.
func Build(fd *ast.FuncDecl, info *types.Info) *Func {
	if fd == nil || fd.Body == nil || info == nil {
		return nil
	}
	g := flow.New(fd.Body, info)
	if g == nil || len(g.Blocks) == 0 {
		return nil
	}
	f := &Func{
		Decl:      fd,
		CFG:       g,
		Dom:       Dominators(g),
		Info:      info,
		UseVal:    make(map[*ast.Ident]*Value),
		UsesOf:    make(map[*Value][]*ast.Ident),
		Phis:      make(map[*flow.Block][]*Phi),
		NodeBlock: make(map[ast.Node]*flow.Block),
		tracked:   make(map[*types.Var]bool),
		facts:     make(map[*flow.Block][]Fact),
	}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			f.NodeBlock[n] = b
		}
	}
	f.collectVars()
	f.placePhis()
	f.rename()
	return f
}

// collectVars decides which variables get SSA form: params, receiver,
// named results, and locals declared in the body — minus anything
// address-taken or assigned inside a nested function literal.
func (f *Func) collectVars() {
	add := func(id *ast.Ident) {
		if id == nil || id.Name == "_" {
			return
		}
		if v, ok := f.Info.Defs[id].(*types.Var); ok && v != nil {
			if !f.tracked[v] {
				f.tracked[v] = true
				f.Vars = append(f.Vars, v)
			}
		}
	}
	if f.Decl.Recv != nil {
		for _, fld := range f.Decl.Recv.List {
			for _, n := range fld.Names {
				add(n)
			}
		}
	}
	if f.Decl.Type.Params != nil {
		for _, fld := range f.Decl.Type.Params.List {
			for _, n := range fld.Names {
				add(n)
			}
		}
	}
	if f.Decl.Type.Results != nil {
		for _, fld := range f.Decl.Type.Results.List {
			for _, n := range fld.Names {
				add(n)
			}
		}
	}
	// Locals: every := / var definition in the body.
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			add(id)
		}
		return true
	})
	// Disqualify address-taken vars and vars written inside closures.
	var disqualify func(e ast.Expr)
	disqualify = func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := f.Info.Uses[id].(*types.Var); ok {
				f.untrack(v)
			}
			if v, ok := f.Info.Defs[id].(*types.Var); ok {
				f.untrack(v)
			}
		}
	}
	inClosure := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				disqualify(n.X)
			}
		case *ast.FuncLit:
			inClosure++
			ast.Inspect(n.Body, walk)
			inClosure--
			return false
		case *ast.AssignStmt:
			if inClosure > 0 {
				for _, lhs := range n.Lhs {
					disqualify(lhs)
				}
			}
		case *ast.IncDecStmt:
			if inClosure > 0 {
				disqualify(n.X)
			}
		case *ast.RangeStmt:
			if inClosure > 0 {
				disqualify(n.Key)
				disqualify(n.Value)
			}
		}
		return true
	}
	ast.Inspect(f.Decl.Body, walk)
}

func (f *Func) untrack(v *types.Var) {
	if v == nil || !f.tracked[v] {
		return
	}
	delete(f.tracked, v)
	for i, w := range f.Vars {
		if w == v {
			f.Vars = append(f.Vars[:i], f.Vars[i+1:]...)
			break
		}
	}
}

// defsOf reports the tracked variables a top-level node defines, paired
// with a constructor for their Value. The bool result is false when the
// node defines nothing.
type def struct {
	v    *types.Var
	make func() *Value
}

func (f *Func) newValue(v *types.Var, kind ValueKind, b *flow.Block, site ast.Node) *Value {
	val := &Value{ID: len(f.Values), Var: v, Kind: kind, Block: b, Site: site}
	f.Values = append(f.Values, val)
	return val
}

// nodeDefs extracts definitions from one top-level block node.
func (f *Func) nodeDefs(n ast.Node, b *flow.Block) []def {
	var defs []def
	obj := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if v, ok := f.Info.Defs[id].(*types.Var); ok && f.tracked[v] {
			return v
		}
		if v, ok := f.Info.Uses[id].(*types.Var); ok && f.tracked[v] {
			return v
		}
		return nil
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		switch {
		case n.Tok == token.ASSIGN || n.Tok == token.DEFINE:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					v := obj(lhs)
					if v == nil {
						continue
					}
					rhs := n.Rhs[i]
					defs = append(defs, def{v, func() *Value {
						val := f.newValue(v, KindExpr, b, n)
						val.Rhs = rhs
						return val
					}})
				}
			} else if len(n.Rhs) == 1 {
				call, isCall := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				for i, lhs := range n.Lhs {
					v := obj(lhs)
					if v == nil {
						continue
					}
					i := i
					defs = append(defs, def{v, func() *Value {
						if isCall {
							val := f.newValue(v, KindCall, b, n)
							val.Call = call
							val.ResIdx = i
							return val
						}
						return f.newValue(v, KindOpaque, b, n)
					}})
				}
			}
		default: // op=
			v := obj(n.Lhs[0])
			if v != nil {
				op := compoundOp(n.Tok)
				rhs := n.Rhs[0]
				defs = append(defs, def{v, func() *Value {
					val := f.newValue(v, KindCompound, b, n)
					val.Op = op
					val.Rhs = rhs
					return val
				}})
			}
		}
	case *ast.IncDecStmt:
		v := obj(n.X)
		if v != nil {
			op := token.ADD
			if n.Tok == token.DEC {
				op = token.SUB
			}
			defs = append(defs, def{v, func() *Value {
				val := f.newValue(v, KindCompound, b, n)
				val.Op = op
				return val
			}})
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			break
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				v := obj(name)
				if v == nil {
					continue
				}
				var rhs ast.Expr
				if i < len(vs.Values) {
					rhs = vs.Values[i]
				}
				multi := len(vs.Values) == 1 && len(vs.Names) > 1
				defs = append(defs, def{v, func() *Value {
					switch {
					case multi:
						return f.newValue(v, KindOpaque, b, n)
					case rhs != nil:
						val := f.newValue(v, KindExpr, b, n)
						val.Rhs = rhs
						return val
					default:
						val := f.newValue(v, KindZero, b, n)
						return val
					}
				}})
			}
		}
	case *ast.RangeStmt:
		if v := obj(n.Key); v != nil {
			kind := KindOpaque
			switch f.rangeOperand(n).(type) {
			case *types.Slice, *types.Array, *types.Pointer, *types.Basic:
				kind = KindRangeIndex
			}
			defs = append(defs, def{v, func() *Value {
				return f.newValue(v, kind, b, n)
			}})
		}
		if v := obj(n.Value); v != nil {
			defs = append(defs, def{v, func() *Value {
				return f.newValue(v, KindOpaque, b, n)
			}})
		}
	}
	return defs
}

// rangeOperand resolves the effective element container type of a range
// statement: slices, arrays (through one pointer), strings, and go 1.22
// integer ranges all produce integer keys. Maps, channels, and funcs
// return a type that the caller maps to KindOpaque.
func (f *Func) rangeOperand(rs *ast.RangeStmt) types.Type {
	t := f.Info.TypeOf(rs.X)
	if t == nil {
		return nil
	}
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		u = p.Elem().Underlying()
	}
	switch u := u.(type) {
	case *types.Slice, *types.Array:
		return u
	case *types.Basic:
		if u.Info()&(types.IsInteger|types.IsString) != 0 {
			return u
		}
	}
	return nil
}

func compoundOp(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	case token.AND_ASSIGN:
		return token.AND
	case token.OR_ASSIGN:
		return token.OR
	case token.XOR_ASSIGN:
		return token.XOR
	case token.SHL_ASSIGN:
		return token.SHL
	case token.SHR_ASSIGN:
		return token.SHR
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT
	}
	return token.ILLEGAL
}

// placePhis runs the pruned-SSA phi placement: the iterated dominance
// frontier of each variable's definition blocks, filtered by block-level
// liveness so dead merges get no phi.
func (f *Func) placePhis() {
	n := len(f.CFG.Blocks)

	// Per-block def set and upward-exposed use set, over top-level nodes.
	defsIn := make([]map[*types.Var]bool, n)
	upUse := make([]map[*types.Var]bool, n)
	for i := range defsIn {
		defsIn[i] = make(map[*types.Var]bool)
		upUse[i] = make(map[*types.Var]bool)
	}
	for _, b := range f.CFG.Blocks {
		for _, node := range b.Nodes {
			// Uses before this node's defs count as upward-exposed if the
			// block hasn't defined the variable yet.
			f.eachUse(node, func(id *ast.Ident, v *types.Var) {
				if !defsIn[b.Index][v] {
					upUse[b.Index][v] = true
				}
			})
			for _, d := range f.nodeDefs(node, b) {
				defsIn[b.Index][d.v] = true
			}
		}
	}

	// Backward liveness to a fixed point.
	liveIn := make([]map[*types.Var]bool, n)
	for i := range liveIn {
		liveIn[i] = make(map[*types.Var]bool)
		for v := range upUse[i] {
			liveIn[i][v] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.CFG.Blocks[i]
			for _, s := range b.Succs {
				for v := range liveIn[s.Index] {
					if defsIn[i][v] || liveIn[i][v] {
						continue
					}
					liveIn[i][v] = true
					changed = true
				}
			}
		}
	}

	// Entry defines every param/result/receiver.
	entryVars := make(map[*types.Var]bool)
	collectSig := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			for _, name := range fld.Names {
				if v, ok := f.Info.Defs[name].(*types.Var); ok && f.tracked[v] {
					entryVars[v] = true
				}
			}
		}
	}
	collectSig(f.Decl.Recv)
	collectSig(f.Decl.Type.Params)
	collectSig(f.Decl.Type.Results)

	// Iterated dominance frontier per variable.
	for _, v := range f.Vars {
		var work []int
		inWork := make([]bool, n)
		for i := range defsIn {
			if defsIn[i][v] {
				work = append(work, i)
				inWork[i] = true
			}
		}
		if entryVars[v] && !inWork[0] {
			work = append(work, 0)
			inWork[0] = true
		}
		hasPhi := make([]bool, n)
		for len(work) > 0 {
			x := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range f.Dom.Frontier[x] {
				if hasPhi[y] || !liveIn[y][v] {
					continue
				}
				hasPhi[y] = true
				blk := f.CFG.Blocks[y]
				val := f.newValue(v, KindPhi, blk, nil)
				phi := &Phi{Value: val}
				val.Phi = phi
				f.Phis[blk] = append(f.Phis[blk], phi)
				if !inWork[y] {
					inWork[y] = true
					work = append(work, y)
				}
			}
		}
	}
	// Stable phi order per block (by variable position in f.Vars).
	pos := make(map[*types.Var]int, len(f.Vars))
	for i, v := range f.Vars {
		pos[v] = i
	}
	for _, phis := range f.Phis {
		sort.Slice(phis, func(i, j int) bool {
			return pos[phis[i].Value.Var] < pos[phis[j].Value.Var]
		})
	}
}

// eachUse visits every use-position identifier of a tracked variable in
// one top-level node, skipping nested function literals, definition
// positions, and selector fields. A RangeStmt is the one composite
// statement the CFG stores whole (header only; its body has its own
// blocks), so only its header expressions are scanned.
func (f *Func) eachUse(node ast.Node, visit func(id *ast.Ident, v *types.Var)) {
	if rs, ok := node.(*ast.RangeStmt); ok {
		f.eachUse(rs.X, visit)
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			ast.Inspect(n.X, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false
				}
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := f.Info.Uses[id].(*types.Var); ok && f.tracked[v] {
						visit(id, v)
					}
				}
				return true
			})
			return false
		case *ast.Ident:
			if v, ok := f.Info.Uses[n].(*types.Var); ok && f.tracked[v] {
				visit(n, v)
			}
		}
		return true
	})
}

// rename walks the dominator tree assigning reaching values to every use
// and filling phi edges.
func (f *Func) rename() {
	stacks := make(map[*types.Var][]*Value)
	push := func(v *types.Var, val *Value) {
		stacks[v] = append(stacks[v], val)
	}
	top := func(v *types.Var) *Value {
		s := stacks[v]
		if len(s) == 0 {
			return nil
		}
		return s[len(s)-1]
	}

	// Entry values.
	entry := f.CFG.Blocks[0]
	addEntry := func(fl *ast.FieldList, kind ValueKind) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			for _, name := range fld.Names {
				if v, ok := f.Info.Defs[name].(*types.Var); ok && f.tracked[v] {
					val := f.newValue(v, kind, entry, nil)
					push(v, val)
				}
			}
		}
	}
	addEntry(f.Decl.Recv, KindParam)
	addEntry(f.Decl.Type.Params, KindParam)
	addEntry(f.Decl.Type.Results, KindZero)

	var visit func(bi int)
	visit = func(bi int) {
		b := f.CFG.Blocks[bi]
		mark := make(map[*types.Var]int)
		snap := func(v *types.Var) {
			if _, ok := mark[v]; !ok {
				mark[v] = len(stacks[v])
			}
		}
		for _, phi := range f.Phis[b] {
			snap(phi.Value.Var)
			push(phi.Value.Var, phi.Value)
		}
		for _, node := range b.Nodes {
			// Resolve uses against the pre-definition stacks: in
			// `x, y = y, x` every RHS (and index/selector on the LHS)
			// reads the old values.
			f.eachUse(node, func(id *ast.Ident, v *types.Var) {
				if f.isDefIdent(node, id) {
					return
				}
				if val := top(v); val != nil {
					f.UseVal[id] = val
					f.UsesOf[val] = append(f.UsesOf[val], id)
				}
			})
			for _, d := range f.nodeDefs(node, b) {
				snap(d.v)
				val := d.make()
				if val.Kind == KindCompound {
					val.Prev = topOrNil(stacks, d.v)
				}
				push(d.v, val)
			}
		}
		for _, s := range b.Succs {
			for _, phi := range f.Phis[s] {
				phi.Edges = append(phi.Edges, PhiEdge{Pred: b, Val: top(phi.Value.Var)})
			}
		}
		for _, c := range f.Dom.Children[bi] {
			visit(c)
		}
		for v, depth := range mark {
			stacks[v] = stacks[v][:depth]
		}
	}
	visit(0)

	// Stable phi edge order for dumps.
	for _, phis := range f.Phis {
		for _, phi := range phis {
			sort.Slice(phi.Edges, func(i, j int) bool {
				return phi.Edges[i].Pred.Index < phi.Edges[j].Pred.Index
			})
		}
	}
}

// topOrNil reads the reaching value of v. Called before the compound's
// own value is pushed, so the stack top is the pre-assignment value.
func topOrNil(stacks map[*types.Var][]*Value, v *types.Var) *Value {
	s := stacks[v]
	if len(s) == 0 {
		return nil
	}
	return s[len(s)-1]
}

// isDefIdent reports whether id is a definition position of node (an LHS
// identifier being assigned, a declared name, or a range binding) rather
// than a use.
func (f *Func) isDefIdent(node ast.Node, id *ast.Ident) bool {
	switch n := node.(type) {
	case *ast.AssignStmt:
		if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
			for _, lhs := range n.Lhs {
				if ast.Unparen(lhs) == id {
					return true
				}
			}
		}
		// op= LHS both reads and writes; the read is modeled by Prev, so
		// the identifier itself is a def position.
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			if ast.Unparen(n.Lhs[0]) == id {
				return true
			}
		}
	case *ast.IncDecStmt:
		return ast.Unparen(n.X) == id
	case *ast.RangeStmt:
		return ast.Unparen(n.Key) == id || (n.Value != nil && ast.Unparen(n.Value) == id)
	case *ast.DeclStmt:
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if vs, ok := m.(*ast.ValueSpec); ok {
				for _, name := range vs.Names {
					if name == id {
						found = true
					}
				}
			}
			return true
		})
		return found
	}
	return false
}

// ValueOfUse returns the SSA value reaching a use identifier, or nil.
func (f *Func) ValueOfUse(id *ast.Ident) *Value {
	return f.UseVal[id]
}

// Canonical resolves pure copies: for x := y (y an ident), the canonical
// value of x's definition is the canonical value of y's reaching value.
func (f *Func) Canonical(v *Value) *Value {
	for depth := 0; v != nil && depth < 8; depth++ {
		if v.Kind != KindExpr {
			return v
		}
		id, ok := ast.Unparen(v.Rhs).(*ast.Ident)
		if !ok {
			return v
		}
		src := f.UseVal[id]
		if src == nil {
			return v
		}
		v = src
	}
	return v
}

// BlockAt returns the block whose top-level nodes span pos, or nil.
func (f *Func) BlockAt(pos token.Pos) *flow.Block {
	for n, b := range f.NodeBlock {
		if n.Pos() <= pos && pos <= n.End() {
			return b
		}
	}
	return nil
}
