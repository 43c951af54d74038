// Package flow is a stdlib-only, function-level dataflow engine for the
// repo analyzers: control-flow graphs built from go/ast, a generic forward
// lattice solver with branch sensitivity, and a package call graph with
// bottom-up fixpoint summaries. Two value lattices over the tracked locals
// of a function (Locals) ride the same solver: conditional constant
// propagation (SolveConsts) here, and nilflow's must-analysis of call
// results in the analyzers package. Both read assignments through one
// definition-site walk (EachAssign).
//
// It deliberately mirrors the shape of golang.org/x/tools/go/cfg and the
// x/tools dataflow passes without the dependency (this repo builds with no
// module proxy), and stays at the precision the repolint contracts need:
// one CFG per function body, explicit panic edges for the panic builtin,
// deferred calls collected per function, and interprocedural reasoning via
// per-package summaries that are conservative at indirect calls.
package flow

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// A CFG is the control-flow graph of one function body. Blocks[0] is the
// entry. Exit collects every normal return (and falling off the end); Panic
// collects explicit panic(...) statements. Deferred calls do not appear as
// edges: they are listed in Defers, in registration order, for analyses
// that model defer-at-exit behaviour.
type CFG struct {
	Blocks []*Block
	Exit   *Block
	Panic  *Block
	Defers []*ast.DeferStmt
}

// A Block is a basic block: statements and control expressions that execute
// in sequence, then transfer to one of Succs.
type Block struct {
	Index int
	Kind  string
	// Nodes holds the block's statements and control expressions in
	// execution order. Composite statements never appear whole — an if
	// contributes its Cond, a range its RangeStmt header (transfer
	// functions must not descend into nested bodies, which occupy their
	// own blocks).
	Nodes []ast.Node
	Succs []*Block
	// Cond is set on two-successor condition blocks: Succs[0] is taken
	// when Cond evaluates true, Succs[1] when false.
	Cond ast.Expr
	// Stmt is set on loop head blocks ("for.head", "range.head") to the
	// originating statement, so analyses can map a head block back to its
	// loop syntax (the head of a `for {}` loop otherwise carries no nodes).
	Stmt ast.Stmt
}

// builder holds the state of one CFG construction.
type builder struct {
	cfg  *CFG
	info *types.Info

	current *Block
	// breaks/continues are the innermost-first stacks of branch targets.
	breaks, continues []*Block
	// fallthroughs is the stack of next-case targets inside switches.
	fallthroughs []*Block
	// labels maps a label name to its target block (created on first
	// reference, so forward gotos work).
	labels map[string]*Block
	// labelLoops maps a label name to the break/continue targets of the
	// loop or switch it labels.
	labelBreak, labelContinue map[string]*Block
	// pendingLabel is the label naming the next loop/switch/select.
	pendingLabel string
}

// New builds the CFG of one function body. The info may be nil; it is used
// only to confirm that a call to panic/recover really is the builtin.
func New(body *ast.BlockStmt, info *types.Info) *CFG {
	b := &builder{
		cfg:           &CFG{},
		info:          info,
		labels:        make(map[string]*Block),
		labelBreak:    make(map[string]*Block),
		labelContinue: make(map[string]*Block),
	}
	entry := b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cfg.Panic = b.newBlock("panic")
	b.current = entry
	b.stmtList(body.List)
	b.jump(b.cfg.Exit)
	return b.cfg
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// jump ends the current block with an edge to target; subsequent statements
// land in an unreachable block until something re-anchors the flow.
func (b *builder) jump(target *Block) {
	if b.current != nil {
		b.edge(b.current, target)
	}
	b.current = nil
}

// ensure returns the current block, opening an unreachable one if the flow
// was just terminated (statements after return/panic/goto).
func (b *builder) ensure() *Block {
	if b.current == nil {
		b.current = b.newBlock("unreachable")
	}
	return b.current
}

func (b *builder) add(n ast.Node) {
	blk := b.ensure()
	blk.Nodes = append(blk.Nodes, n)
}

// takeLabel consumes the pending label for a loop/switch/select, recording
// its break (and optionally continue) targets.
func (b *builder) takeLabel(breakT, continueT *Block) {
	if b.pendingLabel == "" {
		return
	}
	b.labelBreak[b.pendingLabel] = breakT
	if continueT != nil {
		b.labelContinue[b.pendingLabel] = continueT
	}
	b.pendingLabel = ""
}

// labelBlock returns (creating on demand) the block a label's statement
// starts in, shared by goto and the labeled statement itself.
func (b *builder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// isBuiltinCall reports whether call invokes the named builtin. Without
// type info it falls back to the bare identifier (sound for the repo,
// which never shadows panic/recover).
func (b *builder) isBuiltinCall(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		if p, isParen := call.Fun.(*ast.ParenExpr); isParen {
			id, ok = p.X.(*ast.Ident)
		}
		if !ok {
			return false
		}
	}
	if id == nil || id.Name != name {
		return false
	}
	if b.info == nil {
		return true
	}
	bi, ok := b.info.Uses[id].(*types.Builtin)
	return ok && bi.Name() == name
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.ensure()
		cond.Cond = s.Cond
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		b.edge(cond, then) // true edge first
		b.current = then
		b.stmt(s.Body)
		b.jump(done)
		if s.Else != nil {
			elseB := b.newBlock("if.else")
			b.edge(cond, elseB)
			b.current = elseB
			b.stmt(s.Else)
			b.jump(done)
		} else {
			b.edge(cond, done)
		}
		b.current = done

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		head.Stmt = s
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		continueT := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			continueT = post
		}
		b.takeLabel(done, continueT)
		b.jump(head)
		b.current = head
		if s.Cond != nil {
			b.add(s.Cond)
			head.Cond = s.Cond
			b.edge(head, body) // true edge first
			b.edge(head, done)
		} else {
			b.edge(head, body)
		}
		b.breaks = append(b.breaks, done)
		b.continues = append(b.continues, continueT)
		b.current = body
		b.stmt(s.Body)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		if post != nil {
			b.jump(post)
			b.current = post
			b.stmt(s.Post)
			b.jump(head)
		} else {
			b.jump(head)
		}
		b.current = done

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		head.Stmt = s
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.takeLabel(done, head)
		b.jump(head)
		head.Nodes = append(head.Nodes, s) // header only; body has own blocks
		b.edge(head, body)
		b.edge(head, done)
		b.breaks = append(b.breaks, done)
		b.continues = append(b.continues, head)
		b.current = body
		b.stmt(s.Body)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.jump(head)
		b.current = done

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		head := b.ensure()
		done := b.newBlock("switch.done")
		b.takeLabel(done, nil)
		b.switchClauses(head, done, s.Body.List, func(c ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			var exprs []ast.Node
			for _, e := range cc.List {
				exprs = append(exprs, e)
			}
			return exprs, cc.Body, cc.List == nil
		})
		b.current = done

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		head := b.ensure()
		done := b.newBlock("typeswitch.done")
		b.takeLabel(done, nil)
		b.switchClauses(head, done, s.Body.List, func(c ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			return nil, cc.Body, cc.List == nil
		})
		b.current = done

	case *ast.SelectStmt:
		head := b.ensure()
		done := b.newBlock("select.done")
		b.takeLabel(done, nil)
		b.breaks = append(b.breaks, done)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			kind := "select.case"
			if cc.Comm == nil {
				kind = "select.default"
			}
			blk := b.newBlock(kind)
			b.edge(head, blk)
			b.current = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jump(done)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.current = done
		if len(s.Body.List) == 0 {
			// select{} blocks forever: done is unreachable.
			b.current = nil
			b.ensure()
		}

	case *ast.LabeledStmt:
		target := b.labelBlock(s.Label.Name)
		b.jump(target)
		b.current = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			t := b.branchTarget(s, b.breaks, b.labelBreak)
			if t != nil {
				b.jump(t)
			}
		case token.CONTINUE:
			t := b.branchTarget(s, b.continues, b.labelContinue)
			if t != nil {
				b.jump(t)
			}
		case token.GOTO:
			b.jump(b.labelBlock(s.Label.Name))
		case token.FALLTHROUGH:
			if n := len(b.fallthroughs); n > 0 && b.fallthroughs[n-1] != nil {
				b.jump(b.fallthroughs[n-1])
			}
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)

	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s)
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && b.isBuiltinCall(call, "panic") {
			b.jump(b.cfg.Panic)
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, Decl, IncDec, Send, Go: straight-line statements.
		b.add(s)
	}
}

// branchTarget resolves a break/continue, honoring its label if present.
func (b *builder) branchTarget(s *ast.BranchStmt, stack []*Block, labeled map[string]*Block) *Block {
	if s.Label != nil {
		return labeled[s.Label.Name]
	}
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// switchClauses wires the shared clause structure of switch/type-switch:
// every clause block is a successor of head (condition order is modeled as
// nondeterministic choice), fallthrough jumps to the next clause, and a
// missing default adds a head->done edge.
func (b *builder) switchClauses(head, done *Block, clauses []ast.Stmt,
	split func(ast.Stmt) (exprs []ast.Node, body []ast.Stmt, isDefault bool)) {

	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		_, _, isDefault := split(c)
		kind := "switch.case"
		if isDefault {
			kind = "switch.default"
			hasDefault = true
		}
		blocks[i] = b.newBlock(kind)
		b.edge(head, blocks[i])
	}
	if !hasDefault {
		b.edge(head, done)
	}
	for i, c := range clauses {
		exprs, body, _ := split(c)
		var next *Block
		if i+1 < len(blocks) {
			next = blocks[i+1]
		}
		b.fallthroughs = append(b.fallthroughs, next)
		b.current = blocks[i]
		blocks[i].Nodes = append(blocks[i].Nodes, exprs...)
		b.stmtList(body)
		b.jump(done)
		b.fallthroughs = b.fallthroughs[:len(b.fallthroughs)-1]
	}
}

// Dump renders the CFG as stable text for golden tests: one paragraph per
// block with its kind, nodes, and successor indices.
func (g *CFG) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d %s\n", blk.Index, blk.Kind)
		for _, n := range blk.Nodes {
			fmt.Fprintf(&sb, "\t%s\n", nodeText(fset, n))
		}
		if len(blk.Succs) > 0 {
			ids := make([]string, len(blk.Succs))
			for i, s := range blk.Succs {
				ids[i] = fmt.Sprintf("b%d", s.Index)
			}
			fmt.Fprintf(&sb, "\t-> %s\n", strings.Join(ids, " "))
		}
	}
	if len(g.Defers) > 0 {
		fmt.Fprintf(&sb, "defers\n")
		for _, d := range g.Defers {
			fmt.Fprintf(&sb, "\t%s\n", nodeText(fset, d))
		}
	}
	return sb.String()
}

// nodeText prints a node on one collapsed line, truncated for readability.
func nodeText(fset *token.FileSet, n ast.Node) string {
	if r, ok := n.(*ast.RangeStmt); ok {
		// Print the header only: the body occupies its own blocks.
		h := "range " + exprText(fset, r.X)
		if r.Key != nil {
			assign := "="
			if r.Tok == token.DEFINE {
				assign = ":="
			}
			kv := exprText(fset, r.Key)
			if r.Value != nil {
				kv += ", " + exprText(fset, r.Value)
			}
			h = kv + " " + assign + " " + h
		}
		return "for " + h
	}
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, n)
	text := strings.Join(strings.Fields(buf.String()), " ")
	if len(text) > 72 {
		text = text[:69] + "..."
	}
	return text
}

func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, e)
	return strings.Join(strings.Fields(buf.String()), " ")
}
