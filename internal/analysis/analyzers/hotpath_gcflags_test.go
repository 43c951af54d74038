package analyzers

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// indexCheckedPkgs are the import-path suffixes whose hot-path indexes are
// held to the compiler's bounds-check verdict: the bit-kernel packages the
// inner learning loops spend their time in.
var indexCheckedPkgs = []string{"internal/bitvec", "internal/tt", "internal/circuit"}

// TestHotpathGcflagsCrossCheck holds every //logicreg:hotpath function to
// the compiler's own verdict. For every package containing one, it
// rebuilds the package with -gcflags=-m and -d=ssa/check_bce/debug=1 and
// fails if the compiler reports, inside a marked function's line range,
//
//   - a heap allocation ("escapes to heap" / "moved to heap"), or
//   - in the bit-kernel packages (indexCheckedPkgs), a bounds check
//     ("Found IsInBounds"): the index half of the shiftrange contract.
//
// Lines feeding an explicit panic are cold by the contract and exempt, as
// are lines calling a same-package panic guard (inlining attributes the
// guard's cold Sprintf boxing to the call site) and lines carrying a
// //logicreg:allow suppression for the contract's analyzer.
//
// The test does not read hotalloc's verdict; the two split the allocation
// contract. This test holds the escapes -m reports on lines inside a
// hot-path body. hotalloc holds the callees: -m reports an allocation in a
// non-inlined callee on the callee's own lines, outside the span, and one
// in another package not at all, since only this package is rebuilt with
// -m. Bounds checks have no static half; the compiler's bounds-check
// elimination is the only prover.
func TestHotpathGcflagsCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds hotpath packages with -gcflags=-m")
	}
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}

	list := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Dir}}", "logicregression/...")
	list.Dir = root
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}

	checked := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		importPath, dir, ok := strings.Cut(line, "\t")
		if !ok {
			continue
		}
		findings, n := hotpathFindings(t, root, importPath, dir)
		checked += n
		for _, f := range findings {
			switch {
			case f.allowed:
			case f.analyzer == "hotalloc":
				t.Errorf("%s: compiler reports %q at %s inside //logicreg:hotpath %s; "+
					"a hot-path body must not allocate, or annotate //logicreg:allow hotalloc <reason>",
					importPath, f.msg, f.pos, f.fn)
			default:
				t.Errorf("%s: compiler keeps a bounds check at %s inside //logicreg:hotpath %s; "+
					"guard the index so the compiler proves it, or annotate //logicreg:allow shiftrange <reason>",
					importPath, f.pos, f.fn)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no //logicreg:hotpath functions to cross-check")
	}
	t.Logf("cross-checked %d hotpath functions against -gcflags=-m and check_bce", checked)
}

// TestShiftRangeIndexCompilerCheck runs the index half of the shiftrange
// contract over the index cases of testdata/src/shiftrange, built as
// internal/bitvec of a temp module: the compiler must keep a bounds check
// in loadWord and offByOne, and in trustedLoad under its allow comment,
// and prove every index of loadGuarded, sumWords and lastWord.
func TestShiftRangeIndexCompilerCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a temp module with -gcflags=-m")
	}
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "bitvec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module example.com/fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srcs, err := filepath.Glob(filepath.Join("testdata", "src", "shiftrange", "*.go"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no shiftrange fixtures: %v", err)
	}
	for _, src := range srcs {
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	findings, _ := hotpathFindings(t, root, "example.com/fixture/internal/bitvec", dir)
	got := make(map[string]string) // function -> "flagged" or "allowed"
	for _, f := range findings {
		if f.analyzer != "shiftrange" {
			t.Errorf("unexpected %s finding %q at %s in %s", f.analyzer, f.msg, f.pos, f.fn)
			continue
		}
		verdict := "flagged"
		if f.allowed {
			verdict = "allowed"
		}
		t.Logf("%s: bounds check in %s (%s)", f.pos, f.fn, verdict)
		got[f.fn] = verdict
	}
	want := map[string]string{"loadWord": "flagged", "offByOne": "flagged", "trustedLoad": "allowed"}
	for fn, v := range want {
		if got[fn] != v {
			t.Errorf("%s: got %q, want %q", fn, got[fn], v)
		}
	}
	for fn, v := range got {
		if _, ok := want[fn]; !ok {
			t.Errorf("%s: got %q, want no bounds check", fn, v)
		}
	}
}

// A hotpathFinding is one compiler diagnostic inside a //logicreg:hotpath
// function that breaks the contract of the named analyzer: a heap
// allocation (hotalloc) or a bounds check in a bit-kernel package
// (shiftrange).
type hotpathFinding struct {
	analyzer string
	fn       string
	pos      string // base file name:line
	msg      string
	allowed  bool // the line carries //logicreg:allow <analyzer>
}

// hotpathFindings rebuilds the package importPath, whose sources are in
// dir, from the module at root with escape and bounds-check diagnostics,
// and returns the findings inside its //logicreg:hotpath functions, cold
// lines left out, along with the number of those functions. Only the
// package itself is recompiled; its dependencies come from the cache.
func hotpathFindings(t *testing.T, root, importPath, dir string) ([]hotpathFinding, int) {
	t.Helper()
	spans, allowed := hotpathSpans(t, dir)
	if len(spans) == 0 {
		return nil, 0
	}
	indexChecked := false
	for _, suffix := range indexCheckedPkgs {
		if strings.HasSuffix(importPath, suffix) {
			indexChecked = true
		}
	}

	build := exec.Command("go", "build", "-gcflags="+importPath+"=-m -d=ssa/check_bce/debug=1", importPath)
	build.Dir = root
	var diag bytes.Buffer
	build.Stdout = &diag
	build.Stderr = &diag
	if err := build.Run(); err != nil {
		t.Fatalf("go build %s: %v\n%s", importPath, err, diag.String())
	}

	var findings []hotpathFinding
	n := 0
	for _, ss := range spans {
		n += len(ss)
	}
	msgRE := regexp.MustCompile(`^(.*\.go):(\d+):\d+: (.*)$`)
	sc := bufio.NewScanner(&diag)
	for sc.Scan() {
		m := msgRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		msg := m[3]
		var analyzer string
		switch {
		case strings.Contains(msg, "escapes to heap") || strings.Contains(msg, "moved to heap"):
			analyzer = "hotalloc"
		case indexChecked && strings.Contains(msg, "Found IsInBounds"):
			analyzer = "shiftrange"
		default:
			continue
		}
		file := filepath.Base(m[1])
		ln, _ := strconv.Atoi(m[2])
		for _, s := range spans[file] {
			if ln >= s.start && ln <= s.end && !s.cold[ln] {
				findings = append(findings, hotpathFinding{
					analyzer: analyzer,
					fn:       s.fn,
					pos:      file + ":" + m[2],
					msg:      msg,
					allowed:  allowed[file+":"+analyzer][ln],
				})
			}
		}
	}
	return findings, n
}

// A hotpathSpan is the body line range of one //logicreg:hotpath function
// with its cold lines: those feeding an explicit panic or calling a
// same-package panic guard.
type hotpathSpan struct {
	fn         string
	start, end int
	cold       map[int]bool
}

// hotpathSpans parses a package directory (non-test files only) and
// returns the spans of its //logicreg:hotpath functions, keyed by base file
// name, and the lines each //logicreg:allow comment covers (its own and the
// next), keyed by "file:analyzer".
func hotpathSpans(t *testing.T, dir string) (map[string][]hotpathSpan, map[string]map[int]bool) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	spans := make(map[string][]hotpathSpan)
	allowed := make(map[string]map[int]bool)
	fset := token.NewFileSet()

	// First sweep: same-package functions containing an explicit panic are
	// "panic guards" (eq/check-style precondition helpers). Their warm paths
	// are verified allocation-free by hotalloc's own bottom-up summaries,
	// but when the compiler inlines them it attributes their cold Sprintf
	// boxing to the caller's line — so guard call lines are exempt below.
	var parsed []*ast.File
	guards := make(map[string]bool)
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		parsed = append(parsed, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "panic" {
						guards[fd.Name.Name] = true
						return false
					}
				}
				return true
			})
		}
	}

	for _, f := range parsed {
		base := filepath.Base(fset.Position(f.Pos()).Filename)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, allowDirective+" ") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, allowDirective+" "))
				if len(fields) == 0 {
					continue
				}
				key := base + ":" + fields[0]
				if allowed[key] == nil {
					allowed[key] = make(map[int]bool)
				}
				ln := fset.Position(c.Pos()).Line
				allowed[key][ln] = true
				allowed[key][ln+1] = true
			}
		}

		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			s := hotpathSpan{
				fn:    fd.Name.Name,
				start: fset.Position(fd.Body.Pos()).Line,
				end:   fset.Position(fd.Body.End()).Line,
				cold:  make(map[int]bool),
			}
			// Arguments of an explicit panic are cold under the contract,
			// and calls to panic guards carry the guard's cold boxing.
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				exempt := false
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					exempt = fun.Name == "panic" || guards[fun.Name]
				case *ast.SelectorExpr:
					exempt = guards[fun.Sel.Name]
				}
				if exempt {
					for ln := fset.Position(call.Pos()).Line; ln <= fset.Position(call.End()).Line; ln++ {
						s.cold[ln] = true
					}
				}
				return true
			})
			spans[base] = append(spans[base], s)
		}
	}
	return spans, allowed
}
