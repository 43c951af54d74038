package ssa

import (
	"fmt"
	"sort"
	"strings"

	"logicregression/internal/analysis/flow"
)

// A DomTree is the dominator tree of one CFG, with dominance frontiers.
// Block 0 (the entry) is the root. Blocks unreachable from the entry (the
// builder's post-return "unreachable" blocks, or an exit no path reaches)
// have no idom and dominate nothing.
type DomTree struct {
	g *flow.CFG
	// Idom holds the immediate dominator's block index, -1 for the entry
	// and for unreachable blocks.
	Idom []int
	// Children lists each block's dominator-tree children, sorted by index.
	Children [][]int
	// Frontier is the dominance frontier of each block, sorted by index.
	Frontier [][]int
	// Reachable reports which blocks the entry reaches.
	Reachable []bool

	// pre/post number the dominator-tree DFS, for O(1) Dominates queries.
	pre, post []int
}

// Dominators computes the dominator tree of g with the Cooper-Harvey-
// Kennedy iterative algorithm over a reverse postorder, then the dominance
// frontiers with Cytron's two-pointer walk. Both are O(edges) per iteration
// and converge in a handful of sweeps on reducible graphs, which is all the
// CFG builder emits.
func Dominators(g *flow.CFG) *DomTree {
	n := len(g.Blocks)
	d := &DomTree{
		g:         g,
		Idom:      make([]int, n),
		Children:  make([][]int, n),
		Frontier:  make([][]int, n),
		Reachable: make([]bool, n),
		pre:       make([]int, n),
		post:      make([]int, n),
	}
	for i := range d.Idom {
		d.Idom[i] = -1
	}
	if n == 0 {
		return d
	}

	// Postorder of the reachable subgraph (iterative DFS).
	postIdx := make([]int, n) // block index -> postorder number
	var order []int           // postorder sequence of block indices
	type frame struct {
		b    int
		next int
	}
	stack := []frame{{b: 0}}
	d.Reachable[0] = true
	onStack := make([]bool, n)
	onStack[0] = true
	visited := make([]bool, n)
	visited[0] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		blk := d.g.Blocks[f.b]
		if f.next < len(blk.Succs) {
			s := blk.Succs[f.next].Index
			f.next++
			if !visited[s] {
				visited[s] = true
				d.Reachable[s] = true
				stack = append(stack, frame{b: s})
				onStack[s] = true
			}
			continue
		}
		postIdx[f.b] = len(order)
		order = append(order, f.b)
		onStack[f.b] = false
		stack = stack[:len(stack)-1]
	}

	// Reverse postorder, entry first.
	rpo := make([]int, len(order))
	for i, b := range order {
		rpo[len(order)-1-i] = b
	}

	preds := make([][]int, n)
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b.Index)
		}
	}

	// Iterate to the fixed point. idom[0] = 0 as the algorithm's sentinel;
	// rewritten to -1 afterwards.
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for postIdx[a] < postIdx[b] {
				a = idom[a]
			}
			for postIdx[b] < postIdx[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range preds[b] {
				if !d.Reachable[p] || idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	copy(d.Idom, idom)
	d.Idom[0] = -1

	for b, id := range d.Idom {
		if id >= 0 {
			d.Children[id] = append(d.Children[id], b)
		}
	}
	for _, c := range d.Children {
		sort.Ints(c)
	}

	// Dominance frontiers: for each join point, walk each predecessor's
	// dominator chain up to (but not including) the join's idom.
	inFrontier := make(map[[2]int]bool)
	for _, b := range rpo {
		if len(preds[b]) < 2 {
			continue
		}
		for _, p := range preds[b] {
			if !d.Reachable[p] {
				continue
			}
			runner := p
			for runner != -1 && runner != d.Idom[b] {
				if !inFrontier[[2]int{runner, b}] {
					inFrontier[[2]int{runner, b}] = true
					d.Frontier[runner] = append(d.Frontier[runner], b)
				}
				runner = d.Idom[runner]
			}
		}
	}
	for _, f := range d.Frontier {
		sort.Ints(f)
	}

	// DFS numbering of the dominator tree for Dominates.
	clock := 0
	var number func(b int)
	number = func(b int) {
		clock++
		d.pre[b] = clock
		for _, c := range d.Children[b] {
			number(c)
		}
		clock++
		d.post[b] = clock
	}
	number(0)
	return d
}

// Dominates reports whether a dominates b (reflexively: every block
// dominates itself). Unreachable blocks dominate nothing and are dominated
// by nothing.
func (d *DomTree) Dominates(a, b *flow.Block) bool {
	if !d.Reachable[a.Index] || !d.Reachable[b.Index] {
		return false
	}
	return d.pre[a.Index] <= d.pre[b.Index] && d.post[b.Index] <= d.post[a.Index]
}

// Dump renders the tree as stable text for golden tests: one line per
// block with its idom and dominance frontier.
func (d *DomTree) Dump() string {
	var sb strings.Builder
	for i, b := range d.g.Blocks {
		switch {
		case i == 0:
			fmt.Fprintf(&sb, "b%d %s: idom -", i, b.Kind)
		case !d.Reachable[i]:
			fmt.Fprintf(&sb, "b%d %s: unreachable", i, b.Kind)
			sb.WriteString("\n")
			continue
		default:
			fmt.Fprintf(&sb, "b%d %s: idom b%d", i, b.Kind, d.Idom[i])
		}
		if len(d.Frontier[i]) > 0 {
			parts := make([]string, len(d.Frontier[i]))
			for j, f := range d.Frontier[i] {
				parts[j] = fmt.Sprintf("b%d", f)
			}
			fmt.Fprintf(&sb, ", df {%s}", strings.Join(parts, " "))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
