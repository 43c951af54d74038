package ssa

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseWholeFile type-checks one source file against the compiled stdlib.
func parseWholeFile(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
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

// parseFunc type-checks one file and returns the named function's decl.
func parseFunc(t *testing.T, src, name string) (*token.FileSet, *ast.FuncDecl, *types.Info) {
	t.Helper()
	fset, f, info := parseWholeFile(t, src)
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fset, fd, info
		}
	}
	t.Fatalf("no function %q", name)
	return nil, nil, nil
}

func buildFunc(t *testing.T, src, name string) *Func {
	t.Helper()
	_, fd, info := parseFunc(t, src, name)
	f := Build(fd, info)
	if f == nil {
		t.Fatalf("Build returned nil for %q", name)
	}
	return f
}

func golden(t *testing.T, got, want string) {
	t.Helper()
	g, w := strings.TrimSpace(got), strings.TrimSpace(want)
	if g != w {
		t.Errorf("dump mismatch:\n--- got ---\n%s\n--- want ---\n%s", g, w)
	}
}

// The sources below mirror the CFG golden corpus in
// internal/analysis/flow/cfg_test.go, so the two suites stay comparable
// side by side: same shapes, one dumping structure, this one dominance.

const srcLabeledBreak = `package x
func f(xs [][]int) int {
	total := 0
outer:
	for _, row := range xs {
		for _, v := range row {
			if v < 0 {
				break outer
			}
			total += v
		}
	}
	return total
}
`

func TestDomLabeledBreak(t *testing.T) {
	f := buildFunc(t, srcLabeledBreak, "f")
	golden(t, f.Dom.Dump(), `
b0 entry: idom -
b1 exit: idom b6
b2 panic: unreachable
b3 label.outer: idom b0
b4 range.head: idom b3, df {b4}
b5 range.body: idom b4, df {b4 b6}
b6 range.done: idom b4
b7 range.head: idom b5, df {b4 b6 b7}
b8 range.body: idom b7, df {b6 b7}
b9 range.done: idom b7, df {b4}
b10 if.then: idom b8, df {b6}
b11 if.done: idom b8, df {b7}
`)
	golden(t, f.DumpPhis(), `
b4 range.head: total(b3:expr b9:phi)
b6 range.done: total(b4:phi b10:phi)
b7 range.head: total(b5:phi b11:compound)
`)
}

const srcSelect = `package x
func f(a, b chan int, out chan<- int) int {
	n := 0
	for {
		select {
		case v := <-a:
			out <- v
			n++
		case <-b:
			return n
		default:
			continue
		}
	}
}
`

func TestDomSelect(t *testing.T) {
	f := buildFunc(t, srcSelect, "f")
	golden(t, f.Dom.Dump(), `
b0 entry: idom -
b1 exit: idom b8
b2 panic: unreachable
b3 for.head: idom b0, df {b3}
b4 for.body: idom b3, df {b3}
b5 for.done: unreachable
b6 select.done: idom b7, df {b3}
b7 select.case: idom b4, df {b3}
b8 select.case: idom b4
b9 select.default: idom b4, df {b3}
`)
	golden(t, f.DumpPhis(), `
b3 for.head: n(b0:expr b6:compound b9:phi)
`)
}

const srcSwitchGoto = `package x
func f(n int) int {
	switch n {
	case 0:
		n++
		fallthrough
	case 1:
		n += 2
	default:
		goto out
	}
	n *= 3
out:
	return n
}
`

func TestDomSwitchFallthroughGoto(t *testing.T) {
	f := buildFunc(t, srcSwitchGoto, "f")
	golden(t, f.Dom.Dump(), `
b0 entry: idom -
b1 exit: idom b7
b2 panic: unreachable
b3 switch.done: idom b5, df {b7}
b4 switch.case: idom b0, df {b5}
b5 switch.case: idom b0, df {b7}
b6 switch.default: idom b0, df {b7}
b7 label.out: idom b0
`)
	golden(t, f.DumpPhis(), `
b5 switch.case: n(b0:param b4:compound)
b7 label.out: n(b3:compound b6:param)
`)
}

const srcDiamond = `package x
func f(a, b int) int {
	x := 0
	if a > b {
		x = a
	} else {
		x = b
	}
	return x
}
`

func TestDomDiamond(t *testing.T) {
	f := buildFunc(t, srcDiamond, "f")
	golden(t, f.Dom.Dump(), `
b0 entry: idom -
b1 exit: idom b4
b2 panic: unreachable
b3 if.then: idom b0, df {b4}
b4 if.done: idom b0
b5 if.else: idom b0, df {b4}
`)
	golden(t, f.DumpPhis(), `
b4 if.done: x(b3:expr b5:expr)
`)
}

// TestDominatesBasics sanity-checks the dominator tree against the
// diamond: entry dominates everything, neither arm dominates the join.
func TestDominatesBasics(t *testing.T) {
	f := buildFunc(t, srcDiamond, "f")
	// dominators lists b and its strict dominators, up the idom chain.
	dominators := func(b int) map[int]bool {
		doms := make(map[int]bool)
		for ; b >= 0; b = f.Dom.Idom[b] {
			doms[b] = true
		}
		return doms
	}
	entry, then, done, els := 0, 3, 4, 5
	if !dominators(done)[entry] {
		t.Error("entry should dominate the join")
	}
	if dominators(done)[then] || dominators(done)[els] {
		t.Error("no single arm dominates the join")
	}
	if !dominators(then)[then] {
		t.Error("dominance must be reflexive")
	}
}
