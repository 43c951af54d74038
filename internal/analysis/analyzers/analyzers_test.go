package analyzers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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

// loadModule loads the whole module once: the fixtures type-check against
// its packages and the export data of their dependency closure (math/rand,
// io, ...), and TestRepoIsClean runs over it.
var loadModule = sync.OnceValues(func() (*analysis.Program, error) {
	return analysis.Load("../../..", "logicregression/...")
})

// program returns the loaded module or fails the test.
func program(t *testing.T) *analysis.Program {
	t.Helper()
	prog, err := loadModule()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return prog
}

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

// fixturePath is the import path the fixture directory dir type-checks
// under: logicregression/fixture/<dir>, except for the rules gated to
// particular packages, whose fixtures sit inside the gate.
func fixturePath(dir string) string {
	switch dir {
	case "scalareval":
		return "logicregression/internal/support" // a batch-capable package
	case "shiftrange":
		return "logicregression/internal/bitvec" // a bit-kernel package
	}
	return "logicregression/fixture/" + dir
}

// checkFixture runs the analyzers over testdata/src/<dir> as one package
// under fixturePath(dir), and returns the fixture's parsed files too.
func checkFixture(t *testing.T, dir string, analyzers []*analysis.Analyzer) (*token.FileSet, []*ast.File, []analysis.Diagnostic) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures for %s: %v", dir, err)
	}
	diags, err := program(t).Check(fixturePath(dir), paths, analyzers)
	if err != nil {
		t.Fatalf("Check: %v", err)
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
	return fset, files, diags
}

// runFixture checks analyzer a against the want comments of its fixture
// in testdata/src/<a.Name>.
func runFixture(t *testing.T, a *analysis.Analyzer) {
	t.Helper()
	fset, files, diags := checkFixture(t, a.Name, []*analysis.Analyzer{a})

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
	diags, err := program(t).Check(importPath, []string{filepath.Join("testdata", "src", dir, "bad.go")},
		[]*analysis.Analyzer{a})
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

func TestGoLeakFixture(t *testing.T) {
	runFixture(t, GoLeak)
}

func TestAtomicSafeFixture(t *testing.T) {
	runFixture(t, AtomicSafe)
}

func TestChanFlowFixture(t *testing.T) {
	runFixture(t, ChanFlow)
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

// TestDeadBranchFollowsDependencyEdit checks deadbranch across a package
// boundary under a narrow pattern: the branch in hot folds through a
// constant imported from mode, which the pattern does not name, and the
// verdict flips when mode is edited.
func TestDeadBranchFollowsDependencyEdit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list on a temp module")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":       "module example.com/constdep\n\ngo 1.21\n",
		"mode/mode.go": "package mode\n\nconst Threshold = 1\n",
		"hot/hot.go": `package hot

import "example.com/constdep/mode"

func Pick(x int) int {
	v := mode.Threshold
	if v > 0 {
		return x
	}
	return -x
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	verdict := func() string {
		t.Helper()
		prog, err := analysis.Load(dir, "./hot")
		if err != nil {
			t.Fatal(err)
		}
		diags, err := prog.Run([]*analysis.Analyzer{DeadBranch})
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 1 || filepath.Base(diags[0].Pos.Filename) != "hot.go" {
			t.Fatalf("want one finding in hot.go, got %v", diags)
		}
		return diags[0].Message
	}

	if msg := verdict(); !strings.Contains(msg, "always true") {
		t.Fatalf("mode.Threshold = 1: %q, want an always-true verdict", msg)
	}
	modePath := filepath.Join(dir, "mode", "mode.go")
	if err := os.WriteFile(modePath, []byte("package mode\n\nconst Threshold = -1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if msg := verdict(); !strings.Contains(msg, "always false") {
		t.Fatalf("mode.Threshold = -1: %q, want an always-false verdict", msg)
	}
}

// TestWriteSARIF writes the hotalloc fixture's diagnostics as SARIF and
// decodes the log: one rule per analyzer in All() order carrying its Doc,
// one result per diagnostic in order, with file paths made relative to the
// working directory.
func TestWriteSARIF(t *testing.T) {
	_, _, diags := checkFixture(t, "hotalloc", All())
	if len(diags) == 0 {
		t.Fatal("the hotalloc fixture drew no diagnostics; the check is vacuous")
	}
	rel := make([]string, len(diags))
	for i := range diags {
		rel[i] = filepath.ToSlash(diags[i].Pos.Filename)
		abs, err := filepath.Abs(diags[i].Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		diags[i].Pos.Filename = abs
	}
	var buf bytes.Buffer
	if err := analysis.WriteSARIF(&buf, All(), diags); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Name, Version string
					Rules         []struct {
						ID               string
						ShortDescription struct{ Text string }
					}
				}
			}
			Results []struct {
				RuleID, Level string
				Message       struct{ Text string }
				Locations     []struct {
					PhysicalLocation struct {
						ArtifactLocation struct{ URI string }
						Region           struct{ StartLine, StartColumn int }
					}
				}
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("decode: %v\n%s", err, buf.String())
	}
	if len(log.Runs) != 1 {
		t.Fatalf("%d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if d := run.Tool.Driver; d.Name != "repolint" || d.Version != analysis.Version {
		t.Errorf("tool %s %s, want repolint %s", d.Name, d.Version, analysis.Version)
	}
	rules := run.Tool.Driver.Rules
	if len(rules) != len(All()) {
		t.Fatalf("%d rules, want %d", len(rules), len(All()))
	}
	for i, a := range All() {
		if rules[i].ID != a.Name || rules[i].ShortDescription.Text != a.Doc {
			t.Errorf("rule %d is %q, want %s with its Doc", i, rules[i].ID, a.Name)
		}
	}
	if len(run.Results) != len(diags) {
		t.Fatalf("%d results, want %d", len(run.Results), len(diags))
	}
	for i, r := range run.Results {
		d := diags[i]
		if r.RuleID != d.Analyzer || r.Level != "warning" || r.Message.Text != d.Message || len(r.Locations) != 1 {
			t.Errorf("result %d = %+v, want %s", i, r, d)
			continue
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != rel[i] || loc.Region.StartLine != d.Pos.Line || loc.Region.StartColumn != d.Pos.Column {
			t.Errorf("result %d at %s:%d:%d, want %s:%d:%d", i, loc.ArtifactLocation.URI,
				loc.Region.StartLine, loc.Region.StartColumn, rel[i], d.Pos.Line, d.Pos.Column)
		}
	}

	buf.Reset()
	if err := analysis.WriteSARIF(&buf, All(), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"results": []`) {
		t.Errorf("no diagnostics did not encode as \"results\": []:\n%s", buf.String())
	}
}

// TestRepoIsClean runs every analyzer over the whole module, cross-package
// facts included: the rules the analyzers encode are supposed to hold in
// production code right now.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the full module")
	}
	diags, err := program(t).Run(All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestHotAllocExportsFactsOnRealCode pins the cross-package side of the
// hot-path contract: analyzing internal/bitvec (all hot-path leaf code)
// must yield AllocFree facts on its exported API, or callers in other
// packages would have nothing to import. A probe run after hotalloc reads
// them back from bitvec's own pass.
func TestHotAllocExportsFactsOnRealCode(t *testing.T) {
	var free, total int
	probe := &analysis.Analyzer{
		Name: "allocfreeprobe",
		Doc:  "test-only: counts AllocFree facts on bitvec's exported functions",
		Run: func(pass *analysis.Pass) error {
			if pass.Pkg.Path() != "logicregression/internal/bitvec" {
				return nil
			}
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
						total++
						if pass.ImportObjectFact(pass.TypesInfo.Defs[fd.Name], &AllocFree{}) {
							free++
						}
					}
				}
			}
			return nil
		},
	}
	if _, err := program(t).Run([]*analysis.Analyzer{HotAlloc, probe}); err != nil {
		t.Fatal(err)
	}
	if total == 0 || free == 0 {
		t.Fatalf("hotalloc exported AllocFree on %d of bitvec's %d exported functions, want some", free, total)
	}
}
