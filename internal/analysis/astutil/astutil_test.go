package astutil

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typecheck parses and type-checks one source file against the compiled
// standard library, returning the file and its type info.
func typecheck(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("x", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, f, info
}

const src = `package x

import "sync"

type T struct{ mu sync.Mutex }

func (t *T) Hit() { t.mu.Lock() }

func calls(t *T, f func()) {
	(t.Hit)()
	f()
	(panic)("x")
	recover()
	println("not a func object")
}
`

// collectCalls returns every call expression in source order.
func collectCalls(f *ast.File) []*ast.CallExpr {
	var calls []*ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	return calls
}

func TestCalleeFunc(t *testing.T) {
	_, f, info := typecheck(t, src)
	calls := collectCalls(f)
	// Calls in source order: t.mu.Lock(), (t.Hit)(), f(), (panic)("x"),
	// recover(), println(...).
	if got := CalleeFunc(info, calls[0]); got == nil || got.Name() != "Lock" {
		t.Errorf("calls[0]: got %v, want sync.Mutex.Lock", got)
	}
	if got := CalleeFunc(info, calls[1]); got == nil || got.Name() != "Hit" {
		t.Errorf("calls[1]: got %v, want T.Hit (through parens)", got)
	}
	for i := 2; i < len(calls); i++ {
		if got := CalleeFunc(info, calls[i]); got != nil {
			t.Errorf("calls[%d]: got %v, want nil (indirect/builtin)", i, got)
		}
	}
}

func TestIsBuiltin(t *testing.T) {
	_, f, info := typecheck(t, src)
	calls := collectCalls(f)
	if !IsBuiltin(info, calls[3], "panic") {
		t.Error("parenthesized panic call not recognized as builtin")
	}
	if !IsBuiltin(info, calls[4], "recover") {
		t.Error("recover call not recognized as builtin")
	}
	if IsBuiltin(info, calls[0], "panic") {
		t.Error("method call recognized as builtin panic")
	}
	if IsBuiltin(info, calls[2], "panic") {
		t.Error("indirect call recognized as builtin panic")
	}
}

func TestUnparen(t *testing.T) {
	inner := &ast.Ident{Name: "x"}
	wrapped := ast.Expr(inner)
	for i := 0; i < 3; i++ {
		wrapped = &ast.ParenExpr{X: wrapped}
	}
	if Unparen(wrapped) != inner {
		t.Error("Unparen did not strip nested parentheses")
	}
	if Unparen(inner) != inner {
		t.Error("Unparen changed an unparenthesized expression")
	}
}
