package bdd

import (
	"errors"
	"math/rand"
	"testing"
)

func TestFromTruthTableExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(8)
		table := make([]bool, 1<<uint(k))
		for i := range table {
			table[i] = rng.Intn(2) == 1
		}
		vars := make([]int, k)
		for i := range vars {
			vars[i] = i
		}
		m := NewManager(k, 0)
		root := FromTruthTable(m, table, vars)
		for minterm := range table {
			a := make([]bool, k)
			for v := 0; v < k; v++ {
				a[v] = minterm>>uint(v)&1 == 1
			}
			if m.Eval(root, a) != table[minterm] {
				t.Fatalf("trial %d: wrong at minterm %b", trial, minterm)
			}
		}
	}
}

func TestFromTruthTableSparseVars(t *testing.T) {
	// Variables 1 and 3 of a 5-var manager; table bit j of index maps to
	// vars[j].
	m := NewManager(5, 0)
	table := []bool{false, true, true, false} // XOR of the two vars
	root := FromTruthTable(m, table, []int{1, 3})
	// The other three variables take both values: the diagram must not
	// depend on them.
	for p := 0; p < 32; p++ {
		a := make([]bool, 5)
		for v := range a {
			a[v] = p>>uint(v)&1 == 1
		}
		if m.Eval(root, a) != (a[1] != a[3]) {
			t.Fatalf("wrong at %05b", p)
		}
	}
}

func TestFromTruthTableConstants(t *testing.T) {
	m := NewManager(3, 0)
	if FromTruthTable(m, []bool{false}, nil) != False {
		t.Fatal("empty-var false table")
	}
	if FromTruthTable(m, []bool{true}, nil) != True {
		t.Fatal("empty-var true table")
	}
	allOnes := []bool{true, true, true, true}
	if FromTruthTable(m, allOnes, []int{0, 1}) != True {
		t.Fatal("constant-1 table did not reduce to True")
	}
}

func TestFromTruthTablePanicsOnBadArgs(t *testing.T) {
	m := NewManager(3, 0)
	for name, f := range map[string]func(){
		"wrong length": func() { FromTruthTable(m, make([]bool, 3), []int{0, 1}) },
		"unsorted":     func() { FromTruthTable(m, make([]bool, 4), []int{1, 0}) },
		"duplicate":    func() { FromTruthTable(m, make([]bool, 4), []int{1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestGuardConvertsBudgetPanic(t *testing.T) {
	m := NewManager(20, 4) // absurdly small budget
	err := m.Guard(func() {
		acc := True
		for i := 0; i < 20; i++ {
			acc = m.Xor(acc, m.Var(i))
		}
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestGuardPassesThroughOtherPanics(t *testing.T) {
	m := NewManager(2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic swallowed")
		}
	}()
	m.Guard(func() { panic("boom") })
}

func TestGuardNilOnSuccess(t *testing.T) {
	m := NewManager(2, 0)
	if err := m.Guard(func() { m.And(m.Var(0), m.Var(1)) }); err != nil {
		t.Fatal(err)
	}
}
