package flow

// A Lattice drives the generic forward solver: abstract states of type S
// form a join-semilattice, and Transfer pushes a state through one block.
type Lattice[S any] interface {
	// Bottom is the initial (empty) state of every block.
	Bottom() S
	// Entry is the state flowing into the entry block.
	Entry() S
	// Join combines two incoming states. It must not mutate its inputs.
	Join(a, b S) S
	// Equal reports whether two states carry the same information.
	Equal(a, b S) bool
	// Transfer computes the out-state of a block from its in-state. It
	// must not mutate in.
	Transfer(b *Block, in S) S
}

// A BranchLattice additionally adapts states along the true/false edges of
// condition blocks (blocks with Cond set): succIdx 0 is the true edge,
// 1 the false edge.
type BranchLattice[S any] interface {
	Lattice[S]
	FlowBranch(b *Block, succIdx int, out S) S
}

// A Solution holds the fixed point of a forward analysis.
type Solution[S any] struct {
	In, Out map[*Block]S
	// Iterations counts block transfers executed before the fixed point.
	Iterations int
	// Converged is false only if the iteration cap was hit, which means
	// the lattice is broken (non-monotone Transfer or unbounded height).
	Converged bool
}

// Forward runs a forward dataflow analysis to its fixed point with a
// worklist. The iteration cap is generous (lattices here have height
// bounded by the number of objects in a function); hitting it is a bug in
// the lattice, reported via Converged.
func Forward[S any](g *CFG, lat Lattice[S]) *Solution[S] {
	sol := &Solution[S]{
		In:        make(map[*Block]S, len(g.Blocks)),
		Out:       make(map[*Block]S, len(g.Blocks)),
		Converged: true,
	}
	for _, b := range g.Blocks {
		sol.In[b] = lat.Bottom()
		sol.Out[b] = lat.Bottom()
	}
	branch, isBranch := lat.(BranchLattice[S])

	// Predecessor lists, to recompute joins exactly.
	preds := make(map[*Block][]*Block, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}

	inWork := make([]bool, len(g.Blocks))
	work := make([]*Block, 0, len(g.Blocks))
	push := func(b *Block) {
		if !inWork[b.Index] {
			inWork[b.Index] = true
			work = append(work, b)
		}
	}
	for _, b := range g.Blocks {
		push(b)
	}

	cap := 64*len(g.Blocks)*len(g.Blocks) + 4096
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false

		in := lat.Bottom()
		if b.Index == 0 {
			in = lat.Join(in, lat.Entry())
		}
		for _, p := range preds[b] {
			edgeState := sol.Out[p]
			if isBranch && p.Cond != nil {
				for i, s := range p.Succs {
					if s == b {
						edgeState = branch.FlowBranch(p, i, edgeState)
						break
					}
				}
			}
			in = lat.Join(in, edgeState)
		}
		sol.In[b] = in
		out := lat.Transfer(b, in)
		sol.Iterations++
		if sol.Iterations > cap {
			sol.Converged = false
			return sol
		}
		if !lat.Equal(out, sol.Out[b]) {
			sol.Out[b] = out
			for _, s := range b.Succs {
				push(s)
			}
		}
	}
	return sol
}
