// Package analysis is a self-contained static-analysis framework for
// repo-specific Go source rules — the second verification layer next to the
// circuit-IR checks in internal/check.
//
// It mirrors the golang.org/x/tools/go/analysis API surface this repo needs
// (Analyzer, Pass, Diagnostic) on the standard library alone, so the module
// keeps no dependencies. There is one entry point, Main (cmd/repolint),
// and one way the analyzers run: Load (load.go) lists the patterns'
// dependency closure with one `go list`, type-checks the module's packages
// from source into one types universe, and Run analyzes every module
// package in dependency order, passing cross-package facts through one
// in-memory map (facts.go):
//
//	go run ./cmd/repolint ./...
//
// Any finding exits 2; the per-line escape hatch is a reviewed
// //logicreg:allow comment. The analyzers themselves live in
// internal/analysis/analyzers.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named source rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is a one-paragraph description of what it reports.
	Doc string
	// Run inspects a package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass presents one package to one analyzer.
type Pass struct {
	// Analyzer is the rule being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the package.
	Fset *token.FileSet
	// Files holds the syntax trees to inspect. Test files are excluded:
	// the rules encode production-code contracts (batching, seeding, error
	// handling) that tests routinely and legitimately break.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo carries the type-checker's findings for Files.
	TypesInfo *types.Info

	report func(Diagnostic)
	// facts is the run's fact store, shared by every package and analyzer
	// of one Run or Check.
	facts map[factKey]Fact
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}
