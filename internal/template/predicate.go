// Package template implements the template-matching preprocessing of the
// paper (Sec. IV-B): detecting comparator and linear-arithmetic structure
// over the name-grouped input/output vectors by probing the black box, and
// synthesizing the matched subcircuits.
package template

import (
	"fmt"

	"logicregression/internal/circuit"
)

// Predicate is one of the six comparator relations of Table I.
type Predicate uint8

// The comparator predicates.
const (
	EQ Predicate = iota
	NE
	LT
	LE
	GT
	GE
	numPredicates
)

var predNames = [...]string{EQ: "==", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">="}

func (p Predicate) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return fmt.Sprintf("Predicate(%d)", uint8(p))
}

// Eval evaluates the predicate on two unsigned integers.
func (p Predicate) Eval(a, b uint64) bool {
	switch p {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	panic("template: bad predicate")
}

// Build synthesizes the predicate over two signal words.
func (p Predicate) Build(c *circuit.Circuit, a, b circuit.Word) circuit.Signal {
	switch p {
	case EQ:
		return c.EqWords(a, b)
	case NE:
		return c.NeWords(a, b)
	case LT:
		return c.LtWords(a, b)
	case LE:
		return c.LeWords(a, b)
	case GT:
		return c.GtWords(a, b)
	case GE:
		return c.GeWords(a, b)
	}
	panic("template: bad predicate")
}

// BuildConst synthesizes the predicate against a constant right operand.
func (p Predicate) BuildConst(c *circuit.Circuit, a circuit.Word, k uint64) circuit.Signal {
	switch p {
	case EQ:
		return c.EqConst(a, k)
	case NE:
		return c.NotGate(c.EqConst(a, k))
	case LT:
		return c.LtConst(a, k)
	case GE:
		return c.NotGate(c.LtConst(a, k))
	case LE:
		// a <= k  <=>  a < k+1; k+1 may overflow to "always true".
		if k == ^uint64(0) {
			return c.Const(true)
		}
		return c.LtConst(a, k+1)
	case GT:
		if k == ^uint64(0) {
			return c.Const(false)
		}
		return c.NotGate(c.LtConst(a, k+1))
	}
	panic("template: bad predicate")
}
