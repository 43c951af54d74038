package analyzers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"logicregression/internal/analysis"
)

// The fixtures under testdata/src/<analyzer>/ follow the x/tools
// analysistest convention: a `// want "substring"` comment on a line means
// the analyzer must report on that line with a message containing the
// substring, and every report must be announced by such a comment. bad.go
// exercises each way the rule fires; fixed.go shows the repaired code and
// must be silent.

var exportsOnce = sync.OnceValues(func() (map[string]string, error) {
	// Repo root relative to this package; the index covers the full
	// dependency closure (internal packages, math/rand, io, ...) so the
	// fixtures type-check against real export data.
	return analysis.ExportIndex("../../..", "logicregression/...")
})

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

// fixturePath is the import path the fixture directory dir type-checks
// under: logicregression/fixture/<dir>, except for the rules gated to
// particular packages, whose fixtures sit inside the gate.
func fixturePath(dir string) string {
	switch dir {
	case "scalareval":
		return "logicregression/internal/support" // a batch-capable package
	case "panicbridge":
		return "logicregression/internal/core" // the learner-oracle boundary
	case "shiftrange":
		return "logicregression/internal/bitvec" // a bit-kernel package
	}
	return "logicregression/fixture/" + dir
}

// checkFixture parses testdata/src/<dir> and runs the analyzers over it as
// one package under fixturePath(dir).
func checkFixture(t *testing.T, dir string, analyzers []*analysis.Analyzer) (*token.FileSet, []*ast.File, []analysis.Diagnostic) {
	t.Helper()
	exports, err := exportsOnce()
	if err != nil {
		t.Fatalf("export index: %v", err)
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures for %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		files = append(files, f)
	}
	diags, err := analysis.CheckFiles(fset, files, fixturePath(dir), exports, analyzers)
	if err != nil {
		t.Fatalf("CheckFiles: %v", err)
	}
	return fset, files, diags
}

// runFixture checks analyzer a against the want comments of its fixture.
func runFixture(t *testing.T, a *analysis.Analyzer) {
	t.Helper()
	runFixtureDir(t, a.Name, a)
}

// runFixtureDir checks analyzer a against the want comments of the fixture
// in testdata/src/<dir>.
func runFixtureDir(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	fset, files, diags := checkFixture(t, dir, []*analysis.Analyzer{a})

	type expectation struct {
		substr  string
		matched bool
	}
	want := make(map[string]*expectation) // "file:line" -> expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				want[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = &expectation{substr: m[1]}
			}
		}
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		exp, ok := want[key]
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
			continue
		}
		if !strings.Contains(d.Message, exp.substr) {
			t.Errorf("%s: got %q, want message containing %q", key, d.Message, exp.substr)
		}
		exp.matched = true
	}
	for key, exp := range want {
		if !exp.matched {
			t.Errorf("%s: expected diagnostic containing %q, got none", key, exp.substr)
		}
	}
}

// checkBadAs runs analyzer a over testdata/src/<dir>/bad.go alone, as
// package importPath.
func checkBadAs(t *testing.T, dir, importPath string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	exports, err := exportsOnce()
	if err != nil {
		t.Fatalf("export index: %v", err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("testdata", "src", dir, "bad.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.CheckFiles(fset, []*ast.File{f}, importPath, exports, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestOneRulePerContract runs every analyzer over every fixture: a fixed.go
// must stay silent under the whole set, not only under its own analyzer,
// and no line may draw two reports — two rules firing on one line are one
// contract checked twice.
func TestOneRulePerContract(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no fixture directories: %v", err)
	}
	for _, dir := range dirs {
		_, _, diags := checkFixture(t, filepath.Base(dir), All())
		for i, d := range diags {
			if filepath.Base(d.Pos.Filename) == "fixed.go" {
				t.Errorf("%s: %s reports on a fixed file: %s", d.Pos, d.Analyzer, d.Message)
			}
			// Diagnostics come sorted by position.
			if i > 0 && diags[i-1].Pos.Filename == d.Pos.Filename && diags[i-1].Pos.Line == d.Pos.Line {
				t.Errorf("%s:%d: reported by %s and again by %s", d.Pos.Filename, d.Pos.Line,
					diags[i-1].Analyzer, d.Analyzer)
			}
		}
	}
}

func TestScalarEvalFixture(t *testing.T) {
	// The import path must end in a batch-capable suffix or the analyzer
	// skips the package entirely.
	runFixture(t, ScalarEval)
}

func TestScalarEvalSkipsOtherPackages(t *testing.T) {
	diags := checkBadAs(t, "scalareval", "example.com/notbatch", ScalarEval)
	if len(diags) != 0 {
		t.Errorf("scalareval fired in a non-batch-capable package: %v", diags)
	}
}

func TestOrphanErrFixture(t *testing.T) {
	runFixture(t, OrphanErr)
}

func TestErrCompareFixture(t *testing.T) {
	runFixture(t, ErrCompare)
}

func TestNoDeadlineFixture(t *testing.T) {
	runFixture(t, NoDeadline)
}

func TestRandTaintFixture(t *testing.T) {
	runFixture(t, RandTaint)
}

// TestSeededRandFixture runs randtaint over the fixture of the former
// seededrand rule, which randtaint absorbed: every case that rule reported
// must still be reported, with the same message.
func TestSeededRandFixture(t *testing.T) {
	runFixtureDir(t, "seededrand", RandTaint)
}

func TestLockSafeFixture(t *testing.T) {
	runFixture(t, LockSafe)
}

func TestPanicBridgeFixture(t *testing.T) {
	// The contract is gated to the learner-oracle boundary; the fixture
	// type-checks under a core import path to be inside the gate.
	runFixture(t, PanicBridge)
}

func TestPanicBridgeSkipsOtherPackages(t *testing.T) {
	diags := checkBadAs(t, "panicbridge", "example.com/elsewhere", PanicBridge)
	if len(diags) != 0 {
		t.Errorf("panicbridge fired outside internal/core and internal/oracle: %v", diags)
	}
}

func TestGoLeakFixture(t *testing.T) {
	runFixture(t, GoLeak)
}

func TestAtomicSafeFixture(t *testing.T) {
	runFixture(t, AtomicSafe)
}

func TestChanFlowFixture(t *testing.T) {
	runFixture(t, ChanFlow)
}

func TestCtxCancelFixture(t *testing.T) {
	runFixture(t, CtxCancel)
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, HotAlloc)
}

func TestMapDetFixture(t *testing.T) {
	runFixture(t, MapDet)
}

func TestShiftRangeFixture(t *testing.T) {
	// The fixture type-checks under the bitvec import path, the package
	// TestShiftRangeIndexCompilerCheck builds its index cases as.
	runFixture(t, ShiftRange)
}

func TestShiftRangeIndexRuleGated(t *testing.T) {
	// The index rule is gated to the bit-kernel packages and lives in the
	// compiler check (indexCheckedPkgs); the analyzer is the shift rule
	// alone and applies everywhere, so bad.go draws the same findings
	// outside the gate as inside it, none of them about indexes.
	inside := checkBadAs(t, "shiftrange", "logicregression/internal/bitvec", ShiftRange)
	outside := checkBadAs(t, "shiftrange", "example.com/elsewhere", ShiftRange)
	for _, d := range outside {
		if strings.Contains(d.Message, "in bounds") {
			t.Errorf("the analyzer reported an index: %s", d.Message)
		}
	}
	if len(outside) == 0 || len(outside) != len(inside) {
		t.Errorf("shift rule: %d findings outside the bit-kernel packages, %d inside; want the same, nonzero",
			len(outside), len(inside))
	}
}

func TestNilFlowFixture(t *testing.T) {
	runFixture(t, NilFlow)
}

func TestDeadBranchFixture(t *testing.T) {
	runFixture(t, DeadBranch)
}

// TestRepoIsClean runs every analyzer over the whole module through the
// parallel facts-aware driver: the rules the analyzers encode are supposed
// to hold in production code right now, including the cross-package ones.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the full module")
	}
	units, err := analysis.LoadPackages("../../..", "logicregression/...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	d := &analysis.Driver{Analyzers: All(), Parallel: runtime.NumCPU()}
	results, stats, err := d.Run(units)
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	if stats.Failed != 0 {
		t.Errorf("%d units failed to analyze", stats.Failed)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Unit.ImportPath, r.Err)
		}
		for _, d := range r.Diags {
			t.Errorf("%s", d)
		}
	}
}

// TestHotAllocExportsFactsOnRealCode pins the cross-package side of the
// hot-path contract: analyzing internal/bitvec (all hot-path leaf code)
// must yield AllocFree facts on its exported API, or callers in other
// packages would have nothing to import.
func TestHotAllocExportsFactsOnRealCode(t *testing.T) {
	exports, err := exportsOnce()
	if err != nil {
		t.Fatalf("export index: %v", err)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "bitvec", "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bitvec sources: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	_, facts, err := analysis.CheckFilesWithFacts(fset, files,
		"logicregression/internal/bitvec", exports,
		[]*analysis.Analyzer{HotAlloc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if facts.Len() == 0 {
		t.Fatal("hotalloc exported no facts for internal/bitvec")
	}
	blob, err := facts.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"AllocFree"`) {
		t.Errorf("facts blob carries no AllocFree entries:\n%s", blob)
	}
}
