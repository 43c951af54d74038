// Package tt provides truth tables of up to 6 variables packed into a
// single uint64 (bit m = function value at minterm m, variable i
// contributing bit i of m). The cut-based refactor pass computes cut
// functions in this form, check.Equiv uses it as its exhaustive
// small-circuit reference, and fbdt.Exhaustive takes its variable masks for
// lanes and packed truth tables.
package tt

import "fmt"

// MaxVars is the largest supported variable count.
const MaxVars = 6

// Table is a truth table over up to 6 variables.
type Table uint64

// varMasks[i] is the truth table of variable i over 6 variables.
var varMasks = [MaxVars]Table{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// Var returns the table of variable i.
func Var(i int) Table {
	if i < 0 || i >= MaxVars {
		panic(fmt.Sprintf("tt: variable %d out of range", i))
	}
	return varMasks[i]
}

// Mask returns the table with only the meaningful minterm bits of an n-var
// function set.
func Mask(nVars int) Table {
	if nVars >= MaxVars {
		return ^Table(0)
	}
	return Table(1)<<(1<<uint(nVars)) - 1
}

// Eval returns the function value at the given minterm.
func (t Table) Eval(minterm int) bool { return t>>uint(minterm)&1 == 1 }

// String renders the table as a 16-digit hex constant.
func (t Table) String() string { return fmt.Sprintf("%016x", uint64(t)) }
