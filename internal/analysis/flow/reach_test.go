package flow

import (
	"go/ast"
	"testing"
)

// blockOfKind returns the first block of the given kind.
func blockOfKind(t *testing.T, g *CFG, kind string) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		if b.Kind == kind {
			return b
		}
	}
	t.Fatalf("no %q block", kind)
	return nil
}

func TestColdBlocks(t *testing.T) {
	_, fd, info := parseFunc(t, `package x
import "fmt"
func f(i, n int) int {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("index %d out of range", i))
	}
	return i
}
`, "f")
	g := New(fd.Body, info)
	cold := g.ColdBlocks()
	then := blockOfKind(t, g, "if.then")
	if !cold[then] {
		t.Errorf("panic-only if.then not cold")
	}
	if !cold[g.Panic] {
		t.Errorf("panic block not cold")
	}
	for _, b := range g.Blocks {
		if b != then && b != g.Panic && cold[b] {
			t.Errorf("block b%d (%s) wrongly cold", b.Index, b.Kind)
		}
	}
}

func TestCycleBlocks(t *testing.T) {
	_, fd, info := parseFunc(t, `package x
func f(n int) {
	before()
	for i := 0; i < n; i++ {
		inside()
	}
	after()
}
func before() {}
func inside() {}
func after() {}
`, "f")
	g := New(fd.Body, info)
	cyc := g.CycleBlocks()
	if head := blockOfKind(t, g, "for.head"); !cyc[head] {
		t.Errorf("for.head not on cycle")
	}
	if body := blockOfKind(t, g, "for.body"); !cyc[body] {
		t.Errorf("for.body not on cycle")
	}
	if entry := g.Blocks[0]; cyc[entry] {
		t.Errorf("entry wrongly on cycle")
	}
	if cyc[g.Exit] {
		t.Errorf("exit wrongly on cycle")
	}
}

// TestLoopHeadStmt pins the Stmt back-pointer on loop head blocks: an
// unconditioned for head carries no nodes, so analyses need Stmt to get
// back to the loop syntax.
func TestLoopHeadStmt(t *testing.T) {
	_, fd, info := parseFunc(t, `package x
func f(xs []int) {
	for {
		break
	}
	for range xs {
	}
}
`, "f")
	g := New(fd.Body, info)
	forHead := blockOfKind(t, g, "for.head")
	if _, ok := forHead.Stmt.(*ast.ForStmt); !ok {
		t.Errorf("for.head Stmt = %T, want *ast.ForStmt", forHead.Stmt)
	}
	rangeHead := blockOfKind(t, g, "range.head")
	if _, ok := rangeHead.Stmt.(*ast.RangeStmt); !ok {
		t.Errorf("range.head Stmt = %T, want *ast.RangeStmt", rangeHead.Stmt)
	}
}
