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

func TestCanReachAvoid(t *testing.T) {
	_, fd, info := parseFunc(t, `package x
func f(stop chan struct{}, n int) {
	for {
		if n > 0 {
			<-stop
		}
		n--
	}
}
`, "f")
	g := New(fd.Body, info)
	head := blockOfKind(t, g, "for.head")
	then := blockOfKind(t, g, "if.then") // holds the <-stop receive

	if !g.CanReach(head, head, nil) {
		t.Errorf("loop head cannot reach itself")
	}
	// The else path skips the receive: the iteration cycle survives even
	// when the receiving block is forbidden.
	avoid := func(b *Block) bool { return b == then }
	found := false
	for _, s := range head.Succs {
		if s != then && g.CanReach(s, head, avoid) {
			found = true
		}
	}
	if !found {
		t.Errorf("no observation-free cycle found around the if/else")
	}
	// Avoiding the join block below the if severs every cycle.
	done := blockOfKind(t, g, "if.done")
	avoidDone := func(b *Block) bool { return b == done }
	for _, s := range head.Succs {
		if s != done && g.CanReach(s, head, avoidDone) {
			t.Errorf("cycle survives avoiding the only join block")
		}
	}
}
