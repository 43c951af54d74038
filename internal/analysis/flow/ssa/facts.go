package ssa

import (
	"go/ast"
	"go/token"

	"logicregression/internal/analysis/flow"
)

// A Fact is an atomic branch condition known to hold on entry to some
// block: the condition expression Cond evaluated to Truth on the edge
// that the block's dominator chain passed through.
//
// Soundness: facts are collected only from dominator-chain ancestors S
// that are the *single* successor-side target of a conditional edge, so
// every path to the queried block re-traverses that edge after the
// condition's operands were last computed. Because any SSA operand of the
// condition is defined at or above the branch (its definition dominates
// the branch block, hence is not dominated by S), the operand cannot be
// redefined between the edge and the queried block — so the fact still
// talks about the same SSA values there. Non-SSA operands (fields,
// globals, len(chain)) carry no such guarantee: callers of FactsAt must
// match a fact only through operands that resolve to SSA values.
type Fact struct {
	Cond   ast.Expr
	Truth  bool
	Origin *flow.Block // the branch (condition) block
}

// FactsAt returns the branch facts valid on entry to b, outermost first.
// Conditions are decomposed: `a && b` on the true edge yields two facts,
// `a || b` on the false edge likewise, and `!x` flips the truth.
func (f *Func) FactsAt(b *flow.Block) []Fact {
	if facts, ok := f.facts[b]; ok {
		return facts
	}
	var facts []Fact
	preds := f.predIndex()
	for cur := b.Index; cur >= 0; cur = f.Dom.Idom[cur] {
		blk := f.CFG.Blocks[cur]
		ps := preds[cur]
		if len(ps) != 1 {
			continue
		}
		p := f.CFG.Blocks[ps[0]]
		if p.Cond == nil || len(p.Succs) != 2 {
			continue
		}
		var truth bool
		switch {
		case p.Succs[0] == blk && p.Succs[1] == blk:
			continue // degenerate both-edges case
		case p.Succs[0] == blk:
			truth = true
		case p.Succs[1] == blk:
			truth = false
		default:
			continue
		}
		decomposeCond(p.Cond, truth, p, &facts)
	}
	// Reverse so outermost (closest to entry) facts come first.
	for i, j := 0, len(facts)-1; i < j; i, j = i+1, j-1 {
		facts[i], facts[j] = facts[j], facts[i]
	}
	f.facts[b] = facts
	return facts
}

func decomposeCond(cond ast.Expr, truth bool, origin *flow.Block, out *[]Fact) {
	cond = ast.Unparen(cond)
	switch e := cond.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			decomposeCond(e.X, !truth, origin, out)
			return
		}
	case *ast.BinaryExpr:
		if e.Op == token.LAND && truth {
			decomposeCond(e.X, true, origin, out)
			decomposeCond(e.Y, true, origin, out)
			return
		}
		if e.Op == token.LOR && !truth {
			decomposeCond(e.X, false, origin, out)
			decomposeCond(e.Y, false, origin, out)
			return
		}
	}
	*out = append(*out, Fact{Cond: cond, Truth: truth, Origin: origin})
}

func (f *Func) predIndex() [][]int {
	preds := make([][]int, len(f.CFG.Blocks))
	for _, b := range f.CFG.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b.Index)
		}
	}
	return preds
}
