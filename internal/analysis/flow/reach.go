package flow

// This file holds the CFG reachability utilities of the flow engine (cold
// panic-only paths, cycle membership, avoidance-constrained reachability).
// The concurrency/allocation contract analyzers (chanflow, ctxcancel,
// hotalloc) are built on these.

// preds returns the predecessor lists of every block.
func (g *CFG) preds() map[*Block][]*Block {
	p := make(map[*Block][]*Block, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			p[s] = append(p[s], b)
		}
	}
	return p
}

// ColdBlocks returns the blocks from which the normal Exit block is
// unreachable: the panic block itself and every block that can only end in
// a panic (or spin forever). Allocation contracts treat such blocks as cold
// — a fmt.Sprintf feeding a bounds-check panic is not a hot-path cost.
func (g *CFG) ColdBlocks() map[*Block]bool {
	preds := g.preds()
	warm := map[*Block]bool{g.Exit: true}
	work := []*Block{g.Exit}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range preds[b] {
			if !warm[p] {
				warm[p] = true
				work = append(work, p)
			}
		}
	}
	cold := make(map[*Block]bool)
	for _, b := range g.Blocks {
		if !warm[b] {
			cold[b] = true
		}
	}
	return cold
}

// CycleBlocks returns the blocks that lie on some cycle — equivalently,
// the blocks whose statements may execute more than once per call. Used to
// detect defer-in-loop and other per-iteration costs.
func (g *CFG) CycleBlocks() map[*Block]bool {
	on := make(map[*Block]bool)
	for _, b := range g.Blocks {
		if g.reaches(b.Succs, b, nil) {
			on[b] = true
		}
	}
	return on
}

// CanReach reports whether `to` is reachable from `from` along successor
// edges without entering any block for which avoid returns true. `from`
// itself is expanded unconditionally; `to` is tested before its avoid
// status is consulted. A nil avoid means plain reachability.
func (g *CFG) CanReach(from, to *Block, avoid func(*Block) bool) bool {
	if from == to {
		return true
	}
	return g.reaches(from.Succs, to, avoid)
}

func (g *CFG) reaches(starts []*Block, to *Block, avoid func(*Block) bool) bool {
	seen := make(map[*Block]bool)
	var work []*Block
	for _, s := range starts {
		if s == to {
			return true
		}
		if (avoid == nil || !avoid(s)) && !seen[s] {
			seen[s] = true
			work = append(work, s)
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if s == to {
				return true
			}
			if seen[s] || (avoid != nil && avoid(s)) {
				continue
			}
			seen[s] = true
			work = append(work, s)
		}
	}
	return false
}
