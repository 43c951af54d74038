// Command repolint runs the repo-specific static analyzers — the AST rules
// (scalareval, orphanerr, errcompare, nodeadline, atomicsafe), the
// flow-sensitive goroutine-completion check (goleak), the interprocedural
// concurrency/allocation contracts (chanflow, hotalloc), the cross-package
// map-order determinism contract (mapdet), the hot-path shift rule
// (shiftrange), and the value-flow checkers (nilflow, deadbranch); see
// internal/analysis/analyzers — over Go packages:
//
//	repolint ./...
//
// It schedules packages over the dependency DAG in parallel (-parallel,
// default GOMAXPROCS), passes cross-package summaries (facts) from each
// package to its dependents, and, with -cache DIR (or the REPOLINT_CACHE
// environment variable), replays unchanged packages from a
// content-addressed cache keyed on source, the analyzer set, and
// dependency facts — output is byte-identical to a cold sequential run.
// -stats prints unit, cache-hit, and wall-clock counts to stderr.
//
//	repolint -parallel 8 -cache ~/.cache/repolint -stats ./...
//
// -format selects text (default) or sarif (SARIF 2.1.0, for GitHub code
// scanning uploads). Exit status is 2 when any analyzer reports a finding:
// the gate is zero findings, and the per-line escape hatch is a reviewed
// //logicreg:allow <analyzer> <reason> comment. Lock values copied by
// value are `go vet`'s copylocks check, not repolint's.
package main

import (
	"logicregression/internal/analysis"
	"logicregression/internal/analysis/analyzers"
)

func main() {
	analysis.Main(analyzers.All()...)
}
