// Package analyzers holds the repo-specific source rules run by
// cmd/repolint. Each analyzer encodes one contract the learning pipeline
// depends on but the compiler and `go vet` cannot see, and no two
// analyzers report the same line:
//
//	scalareval  batch-capable packages must not query the oracle one
//	            pattern at a time inside loops (query-count and speed)
//	orphanerr   netlist IO errors must not be dropped (a silently
//	            truncated circuit corrupts everything downstream)
//	errcompare  errors are matched with errors.Is, never == / != against
//	            sentinels (%w wrapping breaks identity checks)
//	nodeadline  network I/O must be time-bounded: net.DialTimeout over
//	            net.Dial, Set*Deadline before raw conn reads/writes (a
//	            silent remote black box must not pin a goroutine)
//	goleak      every go statement has a completion witness in scope
//	            (WaitGroup.Done, done-channel send/close, context)
//	atomicsafe  no package-level sync/atomic functions: the typed atomics
//	            make every access atomic and self-align
//	chanflow    no send on a possibly-closed channel, no double close, no
//	            blocking send on an unbuffered channel without a select or
//	            cancellation escape
//	hotalloc    //logicreg:hotpath functions are allocation-free on all
//	            non-panic paths (bodies also held to -gcflags=-m)
//	mapdet      range-over-map and select-arrival values must not reach
//	            returned slices, serialized output, or merge positions
//	            without an intervening sort — the determinism contract
//	            the parallel learning core is held to
//	shiftrange  hot-path shift amounts are constants or masks below the
//	            word width; the bit-kernel indexes are held to the
//	            compiler's bounds-check report (TestHotpathGcflagsCrossCheck)
//	nilflow     value flow: a call result must not be dereferenced on a
//	            path its paired err != nil check proves may be nil
//	deadbranch  constant propagation: branch conditions proven
//	            always-true/false hide one arm from every execution and
//	            every test
//
// The flow-sensitive rules run on internal/analysis/flow (CFGs, a forward
// lattice solver, and bottom-up call-graph summaries); see DESIGN.md §10.
// hotalloc additionally uses its reachability utilities (cold and cycle
// blocks); see DESIGN.md §12 for the annotation grammar. Two analyzers —
// hotalloc and mapdet — additionally export cross-package facts
// (AllocFree, Unordered) through the framework's facts store, so their
// summaries survive package boundaries; see DESIGN.md §13.
package analyzers

import (
	"logicregression/internal/analysis"
)

// All returns every repo analyzer, in stable order. The first group are
// cheap AST matchers; goleak is a flow-sensitive rule built on
// internal/analysis/flow; the third group (atomicsafe, chanflow, hotalloc)
// are the concurrency and hot-path allocation contracts; mapdet is the
// cross-package map-order determinism contract; shiftrange is the
// syntactic hot-path shift rule; the last group (nilflow, deadbranch) are
// the value-flow rules, lattices over tracked locals on the same forward
// solver.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ScalarEval, OrphanErr, ErrCompare, NoDeadline,
		GoLeak,
		AtomicSafe, ChanFlow, HotAlloc,
		MapDet,
		ShiftRange, NilFlow, DeadBranch,
	}
}
