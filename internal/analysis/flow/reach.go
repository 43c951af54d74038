package flow

// This file holds the CFG reachability utilities of the flow engine (cold
// panic-only paths, cycle membership). The hot-path allocation contract
// (hotalloc) is built on these.

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
		if reaches(b.Succs, b) {
			on[b] = true
		}
	}
	return on
}

// reaches reports whether to is reachable along successor edges from any
// block in starts (a start equal to to counts).
func reaches(starts []*Block, to *Block) bool {
	seen := make(map[*Block]bool)
	work := append([]*Block(nil), starts...)
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if b == to {
			return true
		}
		if !seen[b] {
			seen[b] = true
			work = append(work, b.Succs...)
		}
	}
	return false
}
