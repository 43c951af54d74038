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
// It lists the patterns with one `go list -deps -export`, type-checks
// every package of the module in their dependency closure from source,
// and analyzes them one after another in dependency order, so the
// cross-package summaries (facts) of a package are in place before its
// dependents are analyzed, whether or not the patterns name it. Only the
// matched packages' findings are printed.
//
// -format selects text (default) or sarif (SARIF 2.1.0, for GitHub code
// scanning uploads). Exit status is 2 when any analyzer reports a finding:
// the gate is zero findings, and the per-line escape hatch is a reviewed
// //logicreg:allow <analyzer> <reason> comment. It is 1 when a package
// fails to list or type-check, with the error, naming the package, on
// stderr. Lock values copied by value are `go vet`'s copylocks check, not
// repolint's.
package main

import (
	"logicregression/internal/analysis"
	"logicregression/internal/analysis/analyzers"
)

func main() {
	analysis.Main(analyzers.All()...)
}
