package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The loader tests run against throwaway modules and a purpose-built
// analyzer whose diagnostics in one package exist only because of facts
// exported while analyzing another.

// panicsFact marks an exported function that panics on some path.
type panicsFact struct{}

func (*panicsFact) AFact() {}

// panicFinder exports panicsFact on every exported function whose body
// contains a direct panic call, and reports every call into another
// package's function carrying the fact.
var panicFinder = &Analyzer{
	Name: "panicfinder",
	Doc:  "test analyzer: flag calls to panicking functions",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				panics := false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
							panics = true
						}
					}
					return true
				})
				if panics {
					pass.ExportObjectFact(pass.TypesInfo.Defs[fd.Name], &panicsFact{})
				}
			}
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := pass.TypesInfo.Uses[sel.Sel]
				if obj != nil && obj.Pkg() != pass.Pkg && pass.ImportObjectFact(obj, &panicsFact{}) {
					pass.Reportf(call.Pos(), "call to panicking %s.%s", obj.Pkg().Name(), obj.Name())
				}
				return true
			})
		}
		return nil
	},
}

const aSrc = `package a

func Boom() {
	for i := 0; i < 3; i++ {
		_ = i
	}
	panic("boom")
}

func Calm() {
	for i := 0; i < 3; i++ {
		_ = i
	}
}
`

const bSrc = `package b

import "example.com/facttest/a"

func Use() {
	a.Boom()
	a.Calm()
}
`

// writeModule lays out a temp module from name -> source and returns its
// root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestFactsDoNotDependOnPattern checks that a fact exported in package a
// reaches b whether the pattern names a or not, and that the next run sees
// an edit of a.
func TestFactsDoNotDependOnPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list on a temp module")
	}
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/facttest\n\ngo 1.21\n",
		"a/a.go": aSrc,
		"b/b.go": bSrc,
	})
	lint := func(pattern string) string {
		t.Helper()
		prog, err := Load(dir, pattern)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := prog.Run([]*Analyzer{panicFinder})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&sb, "%s:%d:%d: %s\n", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message)
		}
		return sb.String()
	}

	const boom = "b.go:6:2: call to panicking a.Boom\n"
	for _, pattern := range []string{"./...", "./b"} {
		if got := lint(pattern); got != boom {
			t.Errorf("%s reports %q, want %q", pattern, got, boom)
		}
	}

	newA := strings.Replace(aSrc, "\t\t_ = i\n\t}\n}", "\t\t_ = i\n\t}\n\tpanic(\"no longer calm\")\n}", 1)
	if err := os.WriteFile(filepath.Join(dir, "a", "a.go"), []byte(newA), 0o644); err != nil {
		t.Fatal(err)
	}
	const both = boom + "b.go:7:2: call to panicking a.Calm\n"
	for _, pattern := range []string{"./...", "./b"} {
		if got := lint(pattern); got != both {
			t.Errorf("after the edit, %s reports %q, want %q", pattern, got, both)
		}
	}
}

// TestRunFailsOnTypeError checks that a package the type checker rejects
// fails the run with exit status 1 and is named on stderr.
func TestRunFailsOnTypeError(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list on a temp module")
	}
	dir := writeModule(t, map[string]string{
		"go.mod":       "module example.com/broken\n\ngo 1.21\n",
		"good/good.go": "package good\n\nfunc OK() int { return 1 }\n",
		"bad/bad.go":   "package bad\n\nvar X int = \"not an int\"\n",
	})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, []*Analyzer{panicFinder}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "example.com/broken/bad") {
		t.Errorf("stderr does not name the broken package:\n%s", stderr.String())
	}
}

// typecheck parses and type-checks a dependency-free source string, giving
// the facts tests real types.Object values to address.
func typecheck(t *testing.T, path, src string) *types.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := (&types.Config{}).Check(path, fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

const factFixtureSrc = `package p

type T struct{}

func (T) M() {}

func (*T) PM() {}

type hidden struct{}

func (hidden) M() {}

func F() {}

var V int

func unexported() {}
`

// method resolves a named type's method by name.
func method(t *testing.T, pkg *types.Package, typeName, name string) types.Object {
	t.Helper()
	named := pkg.Scope().Lookup(typeName).Type().(*types.Named)
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return m
		}
	}
	t.Fatalf("no method %s.%s", typeName, name)
	return nil
}

func TestObjectFactKey(t *testing.T) {
	pkg := typecheck(t, "example.com/p", factFixtureSrc)
	lookup := pkg.Scope().Lookup

	cases := []struct {
		obj  types.Object
		want bool
	}{
		{lookup("F"), true},
		{lookup("V"), true},
		{lookup("T"), true},
		{method(t, pkg, "T", "M"), true},
		{method(t, pkg, "T", "PM"), true}, // pointer receiver unwraps
		{lookup("unexported"), false},
		{lookup("hidden"), false},
		{method(t, pkg, "hidden", "M"), false}, // exported method, hidden type
		{nil, false},
	}
	for _, tc := range cases {
		if _, ok := objectFactKey(tc.obj, &testFact{}); ok != tc.want {
			t.Errorf("objectFactKey(%v) ok = %v, want %v", tc.obj, ok, tc.want)
		}
	}
}

// testFact is a fact with a payload, so lookups can check the value and
// not just presence.
type testFact struct {
	N int
}

func (*testFact) AFact() {}

// otherFact is never exported.
type otherFact struct{}

func (*otherFact) AFact() {}

// TestFactsRoundTrip checks the run's fact map: a package reads back its
// own facts and a dependent reads them too, a fact of another type misses,
// and an unexported object carries none.
func TestFactsRoundTrip(t *testing.T) {
	pkg := typecheck(t, "example.com/p", factFixtureSrc)
	facts := make(map[factKey]Fact)
	pass := &Pass{Pkg: pkg, facts: facts}
	pass.ExportObjectFact(pkg.Scope().Lookup("F"), &testFact{N: 7})
	pass.ExportObjectFact(method(t, pkg, "T", "M"), &testFact{N: 9})
	pass.ExportObjectFact(pkg.Scope().Lookup("unexported"), &testFact{N: 1})
	if len(facts) != 2 {
		t.Fatalf("exported %d facts, want 2 (an unexported object must be a no-op)", len(facts))
	}

	var got testFact
	if !pass.ImportObjectFact(pkg.Scope().Lookup("F"), &got) || got.N != 7 {
		t.Errorf("same-package ImportObjectFact(F) = %v, %d; want true, 7", got, got.N)
	}
	down := &Pass{Pkg: typecheck(t, "example.com/q", "package q"), facts: facts}
	if !down.ImportObjectFact(method(t, pkg, "T", "M"), &got) || got.N != 9 {
		t.Errorf("ImportObjectFact(T.M) = %v, %d; want true, 9", got, got.N)
	}
	if down.ImportObjectFact(pkg.Scope().Lookup("V"), &got) {
		t.Error("ImportObjectFact(V) found a fact that was never exported")
	}
	if down.ImportObjectFact(pkg.Scope().Lookup("unexported"), &got) {
		t.Error("ImportObjectFact found a fact on an unexported object")
	}
	if down.ImportObjectFact(pkg.Scope().Lookup("F"), &otherFact{}) {
		t.Error("ImportObjectFact matched a fact of a different type")
	}
}
