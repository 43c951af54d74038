package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The loader: one `go list -e -deps -export -json` over the patterns, then
// the module's packages parsed and type-checked from source into one types
// universe in the order go list prints them, every package after its
// dependencies. An import of a module package resolves to the package
// already checked; any other import goes through one gc importer over the
// listed export data, so each standard-library package is decoded once.

// A Program is the module packages of the patterns' dependency closure,
// type-checked from source into one types universe. It is not safe for
// concurrent use.
type Program struct {
	fset *token.FileSet
	// pkgs are the module packages in go list's order.
	pkgs   []*loadedPackage
	byPath map[string]*loadedPackage
	gc     types.Importer
}

// A loadedPackage is one type-checked module package.
type loadedPackage struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
	// matched reports whether the patterns name the package, rather than
	// only a dependent of it.
	matched bool
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Module     *struct{ Main bool }
	Error      *struct{ Err string }
}

// Load lists the patterns (default ./...) in dir and type-checks every
// package of dir's module in their dependency closure. A package that go
// list or the type checker rejects fails the load, and the error names it.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var listed []*listedPackage
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, strings.TrimSpace(p.Error.Err))
		}
		exports[p.ImportPath] = p.Export
		listed = append(listed, p)
	}

	fset := token.NewFileSet()
	prog := &Program{
		fset:   fset,
		byPath: make(map[string]*loadedPackage),
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(exports[path])
		}),
	}
	for _, p := range listed {
		if p.Module == nil || !p.Module.Main {
			continue
		}
		var names []string
		for _, f := range p.GoFiles {
			names = append(names, filepath.Join(p.Dir, f))
		}
		pkg, err := prog.check(p.ImportPath, names)
		if err != nil {
			return nil, err
		}
		pkg.matched = !p.DepOnly
		prog.pkgs = append(prog.pkgs, pkg)
		prog.byPath[p.ImportPath] = pkg
	}
	return prog, nil
}

// Import resolves an import path to a module package already checked, or
// else through the export data go list listed.
func (prog *Program) Import(path string) (*types.Package, error) {
	if pkg, ok := prog.byPath[path]; ok {
		return pkg.types, nil
	}
	return prog.gc.Import(path)
}

// check parses the named files and type-checks them as package path
// against the program.
func (prog *Program) check(path string, filenames []string) (*loadedPackage, error) {
	pkg := &loadedPackage{info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}}
	for _, name := range filenames {
		f, err := parser.ParseFile(prog.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.files = append(pkg.files, f)
	}
	conf := types.Config{
		Importer: prog,
		Error:    func(error) {}, // Check returns the first error
	}
	var err error
	if pkg.types, err = conf.Check(path, prog.fset, pkg.files, pkg.info); err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return pkg, nil
}

// Run runs the analyzers over every module package of the program, in
// dependency order, so the facts a package exports are in place before any
// package that imports it is analyzed. It returns the diagnostics of the
// packages the patterns matched, sorted by SortDiagnostics, and stops at
// the first analyzer error.
func (prog *Program) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := make(map[factKey]Fact)
	var diags []Diagnostic
	for _, pkg := range prog.pkgs {
		found, err := prog.analyze(pkg, analyzers, facts)
		if err != nil {
			return nil, err
		}
		if pkg.matched {
			diags = append(diags, found...)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// Check type-checks the named files as one more package, path, against the
// program and runs the analyzers over it alone, with no facts from the
// program's packages. The analyzer fixtures are checked this way.
func (prog *Program) Check(path string, filenames []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkg, err := prog.check(path, filenames)
	if err != nil {
		return nil, err
	}
	diags, err := prog.analyze(pkg, analyzers, make(map[factKey]Fact))
	SortDiagnostics(diags)
	return diags, err
}

// analyze runs the analyzers over one package, in order.
func (prog *Program) analyze(pkg *loadedPackage, analyzers []*Analyzer, facts map[factKey]Fact) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      prog.fset,
			Files:     pkg.files,
			Pkg:       pkg.types,
			TypesInfo: pkg.info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
			facts:     facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.types.Path(), err)
		}
	}
	return diags, nil
}

// SortDiagnostics orders diags by position, breaking position ties by
// analyzer name and then message so multi-analyzer output at one line is
// deterministic.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}
