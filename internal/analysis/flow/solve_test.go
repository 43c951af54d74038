package flow

import (
	"go/ast"
	"testing"
)

// trueEdgeLattice tracks a single fact — "the condition call succeeded" —
// to exercise branch-sensitive propagation.
type trueEdgeLattice struct{}

func (trueEdgeLattice) Bottom() int         { return 0 }
func (trueEdgeLattice) Entry() int          { return 1 }
func (trueEdgeLattice) Join(a, b int) int   { return max(a, b) }
func (trueEdgeLattice) Equal(a, b int) bool { return a == b }
func (trueEdgeLattice) Transfer(b *Block, in int) int {
	return in
}
func (trueEdgeLattice) FlowBranch(b *Block, succIdx int, out int) int {
	if succIdx == 0 {
		return out + 10 // true edge
	}
	return out
}

func TestBranchSensitivity(t *testing.T) {
	_, fd, info := parseFunc(t, `package x
func f(ok bool) int {
	if ok {
		return 1
	}
	return 0
}
`, "f")
	g := New(fd.Body, info)
	sol := Forward[int](g, trueEdgeLattice{})
	if !sol.Converged {
		t.Fatal("did not converge")
	}
	var then, done *Block
	for _, b := range g.Blocks {
		switch b.Kind {
		case "if.then":
			then = b
		case "if.done":
			done = b
		}
	}
	if sol.In[then] != 11 {
		t.Errorf("then-branch in-state = %d, want 11 (true edge applied)", sol.In[then])
	}
	if sol.In[done] != 1 {
		t.Errorf("false-path in-state = %d, want 1 (no true-edge bonus)", sol.In[done])
	}
}

func TestCallGraphSummaries(t *testing.T) {
	_, file, info := parseWholeFile(t, `package x
func leaf() {}
func mid()  { leaf() }
func top()  { mid(); mid() }
func indirect(f func()) { f() }
func recA() { recB() }
func recB() { recA() }
`)
	g := BuildCallGraph([]*ast.File{file}, info)
	if len(g.Order) != 6 {
		t.Fatalf("call graph has %d nodes, want 6", len(g.Order))
	}
	byName := map[string]*CallNode{}
	for _, n := range g.Order {
		byName[n.Fn.Name()] = n
	}
	if len(byName["top"].Calls) != 2 || byName["top"].Calls[0].Local != byName["mid"] {
		t.Error("top's calls not resolved to the local mid node")
	}
	if !byName["indirect"].HasIndirect {
		t.Error("call through a function value not marked indirect")
	}
	if byName["leaf"].HasIndirect {
		t.Error("leaf marked indirect with no calls at all")
	}

	// Summary: "transitively reaches leaf". Must converge and mark
	// top/mid/leaf but not recA/recB.
	reaches := map[*CallNode]bool{}
	converged := g.Fixpoint(func(n *CallNode) bool {
		v := n.Fn.Name() == "leaf"
		for _, c := range n.Calls {
			if c.Local != nil && reaches[c.Local] {
				v = true
			}
		}
		if v && !reaches[n] {
			reaches[n] = true
			return true
		}
		return false
	})
	if !converged {
		t.Fatal("fixpoint did not converge")
	}
	for name, want := range map[string]bool{"leaf": true, "mid": true, "top": true, "recA": false, "recB": false} {
		if reaches[byName[name]] != want {
			t.Errorf("reaches[%s] = %v, want %v", name, reaches[byName[name]], want)
		}
	}
}
