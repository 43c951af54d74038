package circuit

// Word-level construction helpers. A Word is a little-endian vector of
// signals: w[0] is the least significant bit. These builders are used both by
// the synthetic benchmark cases (to play the role of industrial datapath
// logic) and by the template matcher (to synthesize matched subcircuits).

import "strconv"

// Word is a little-endian vector of signals.
type Word []Signal

// AddPIWord declares width PIs named base[0..width-1] (using the given naming
// function) and returns them as a Word. If name is nil, names are
// "base[i]".
func (c *Circuit) AddPIWord(base string, width int) Word {
	w := make(Word, width)
	for i := range w {
		w[i] = c.AddPI(busBit(base, i))
	}
	return w
}

// AddPOWord declares width POs named base[i] driven by the word bits.
func (c *Circuit) AddPOWord(base string, w Word) {
	for i, s := range w {
		c.AddPO(busBit(base, i), s)
	}
}

func busBit(base string, i int) string {
	return base + "[" + strconv.Itoa(i) + "]"
}

// ConstWord returns a width-bit word holding the constant x.
func (c *Circuit) ConstWord(x uint64, width int) Word {
	w := make(Word, width)
	for i := range w {
		w[i] = c.Const(x>>uint(i)&1 == 1)
	}
	return w
}

// ZeroExtend returns w extended (or truncated) to width bits.
func (c *Circuit) ZeroExtend(w Word, width int) Word {
	out := make(Word, width)
	for i := range out {
		if i < len(w) {
			out[i] = w[i]
		} else {
			out[i] = c.Const(false)
		}
	}
	return out
}

// AddWords returns a ripple-carry sum of a and b, width = max(len(a),len(b)),
// discarding the final carry (modular arithmetic, as datapaths do).
func (c *Circuit) AddWords(a, b Word) Word {
	width := max(len(a), len(b))
	a = c.ZeroExtend(a, width)
	b = c.ZeroExtend(b, width)
	out := make(Word, width)
	carry := c.Const(false)
	for i := 0; i < width; i++ {
		axb := c.Xor(a[i], b[i])
		out[i] = c.Xor(axb, carry)
		carry = c.Or(c.And(a[i], b[i]), c.And(axb, carry))
	}
	return out
}

// MulConst returns (k * a) modulo 2^width using shift-and-add.
func (c *Circuit) MulConst(a Word, k uint64, width int) Word {
	acc := c.ConstWord(0, width)
	shifted := c.ZeroExtend(a, width)
	for bit := 0; bit < width && k>>uint(bit) != 0; bit++ {
		if k>>uint(bit)&1 == 1 {
			acc = c.AddWords(acc, c.shiftLeft(shifted, bit, width))
		}
	}
	return acc
}

func (c *Circuit) shiftLeft(w Word, by, width int) Word {
	out := make(Word, width)
	for i := range out {
		if i >= by && i-by < len(w) {
			out[i] = w[i-by]
		} else {
			out[i] = c.Const(false)
		}
	}
	return out
}

// EqWords returns a signal that is 1 iff the two words are equal
// (shorter word zero-extended).
func (c *Circuit) EqWords(a, b Word) Signal {
	width := max(len(a), len(b))
	a = c.ZeroExtend(a, width)
	b = c.ZeroExtend(b, width)
	acc := c.Xnor(a[0], b[0])
	for i := 1; i < width; i++ {
		acc = c.And(acc, c.Xnor(a[i], b[i]))
	}
	return acc
}

// LtWords returns a signal that is 1 iff Na < Nb (unsigned).
func (c *Circuit) LtWords(a, b Word) Signal {
	width := max(len(a), len(b))
	a = c.ZeroExtend(a, width)
	b = c.ZeroExtend(b, width)
	// From LSB to MSB: lt = (~a & b) | (a==b ? lt_prev).
	lt := c.And(c.NotGate(a[0]), b[0])
	for i := 1; i < width; i++ {
		bitLt := c.And(c.NotGate(a[i]), b[i])
		bitEq := c.Xnor(a[i], b[i])
		lt = c.Or(bitLt, c.And(bitEq, lt))
	}
	return lt
}

// LeWords returns Na <= Nb.
func (c *Circuit) LeWords(a, b Word) Signal {
	return c.NotGate(c.LtWords(b, a))
}

// GtWords returns Na > Nb.
func (c *Circuit) GtWords(a, b Word) Signal { return c.LtWords(b, a) }

// GeWords returns Na >= Nb.
func (c *Circuit) GeWords(a, b Word) Signal { return c.NotGate(c.LtWords(a, b)) }

// NeWords returns Na != Nb.
func (c *Circuit) NeWords(a, b Word) Signal { return c.NotGate(c.EqWords(a, b)) }

// EqConst returns a signal that is 1 iff the word equals constant k.
func (c *Circuit) EqConst(a Word, k uint64) Signal {
	if len(a) < 64 && k>>uint(len(a)) != 0 { // k not representable: never equal
		return c.Const(false)
	}
	var acc Signal = -1
	for i, s := range a {
		bit := s
		if k>>uint(i)&1 == 0 {
			bit = c.NotGate(s)
		}
		if acc < 0 {
			acc = bit
		} else {
			acc = c.And(acc, bit)
		}
	}
	if acc < 0 {
		return c.Const(k == 0)
	}
	return acc
}

// LtConst returns Na < k.
func (c *Circuit) LtConst(a Word, k uint64) Signal {
	return c.LtWords(a, c.ConstWord(k, max(len(a), 64-clz64(k))))
}

func clz64(x uint64) int {
	n := 0
	for i := 63; i >= 0; i-- {
		if x>>uint(i)&1 == 1 {
			break
		}
		n++
	}
	return n
}

// AndTree returns the conjunction of all signals (balanced), Const1 if empty.
func (c *Circuit) AndTree(sigs []Signal) Signal { return c.tree(sigs, c.And, true) }

// OrTree returns the disjunction of all signals (balanced), Const0 if empty.
func (c *Circuit) OrTree(sigs []Signal) Signal { return c.tree(sigs, c.Or, false) }

// XorTree returns the parity of all signals (balanced), Const0 if empty.
func (c *Circuit) XorTree(sigs []Signal) Signal { return c.tree(sigs, c.Xor, false) }

func (c *Circuit) tree(sigs []Signal, op func(a, b Signal) Signal, emptyVal bool) Signal {
	switch len(sigs) {
	case 0:
		return c.Const(emptyVal)
	case 1:
		return sigs[0]
	}
	mid := len(sigs) / 2
	return op(c.tree(sigs[:mid], op, emptyVal), c.tree(sigs[mid:], op, emptyVal))
}
