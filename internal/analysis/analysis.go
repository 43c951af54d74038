// Package analysis is a self-contained static-analysis framework for
// repo-specific Go source rules — the second verification layer next to the
// circuit-IR checks in internal/check.
//
// It mirrors the golang.org/x/tools/go/analysis API surface this repo needs
// (Analyzer, Pass, Diagnostic) on the standard library alone, so the module
// keeps no dependencies. There is one entry point, Main (cmd/repolint),
// and one way the analyzers run: the Driver (driver.go) loads packages and
// compiler export data via `go list`, type-checks each package from
// source, schedules packages over the dependency DAG in parallel, passes
// cross-package facts from each package to its dependents, and replays
// unchanged packages from a content-addressed cache (cache.go):
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
	// FactTypes declares the cross-package fact types the analyzer
	// exports or imports (pointer prototypes; see facts.go). An analyzer
	// with fact types also runs on dependency-only units so its
	// summaries reach dependents.
	FactTypes []Fact
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
	// readFacts resolves dependency fact sets; exported collects this
	// package's outgoing facts. readFacts is nil for fact-less runs
	// (CheckFiles, the fixtures): Import finds nothing.
	readFacts FactReader
	exported  *PackageFacts
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

// newInfo allocates the types.Info maps every analyzer may consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
