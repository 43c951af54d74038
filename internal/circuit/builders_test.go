package circuit

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

// evalWordAsUint drives the circuit with the given input buses and decodes an
// output word back into an integer. Buses are declared as PI words in order.
func buildTwoBusCircuit(width int, f func(c *Circuit, a, b Word)) *Circuit {
	c := New()
	a := c.AddPIWord("a", width)
	b := c.AddPIWord("b", width)
	f(c, a, b)
	return c
}

func evalUints(c *Circuit, width int, va, vb uint64) []bool {
	assign := make([]bool, 2*width)
	for i := 0; i < width; i++ {
		assign[i] = va>>uint(i)&1 == 1
		assign[width+i] = vb>>uint(i)&1 == 1
	}
	return c.Eval(assign)
}

func outWordToUint(out []bool) uint64 {
	var x uint64
	for i, b := range out {
		if b {
			x |= 1 << uint(i)
		}
	}
	return x
}

func TestAddWords(t *testing.T) {
	const width = 6
	c := buildTwoBusCircuit(width, func(c *Circuit, a, b Word) {
		c.AddPOWord("z", c.AddWords(a, b))
	})
	for va := uint64(0); va < 1<<width; va += 7 {
		for vb := uint64(0); vb < 1<<width; vb += 5 {
			got := outWordToUint(evalUints(c, width, va, vb))
			want := (va + vb) % (1 << width)
			if got != want {
				t.Fatalf("%d+%d = %d, want %d", va, vb, got, want)
			}
		}
	}
}

func TestMulConst(t *testing.T) {
	const width = 8
	for _, k := range []uint64{0, 1, 2, 3, 5, 10, 255} {
		c := New()
		a := c.AddPIWord("a", width)
		c.AddPOWord("z", c.MulConst(a, k, width))
		for va := uint64(0); va < 1<<width; va += 13 {
			assign := make([]bool, width)
			for i := 0; i < width; i++ {
				assign[i] = va>>uint(i)&1 == 1
			}
			got := outWordToUint(c.Eval(assign))
			want := (va * k) & (1<<width - 1)
			if got != want {
				t.Fatalf("%d*%d = %d, want %d", k, va, got, want)
			}
		}
	}
}

func TestComparators(t *testing.T) {
	const width = 5
	c := buildTwoBusCircuit(width, func(c *Circuit, a, b Word) {
		c.AddPO("eq", c.EqWords(a, b))
		c.AddPO("ne", c.NeWords(a, b))
		c.AddPO("lt", c.LtWords(a, b))
		c.AddPO("le", c.LeWords(a, b))
		c.AddPO("gt", c.GtWords(a, b))
		c.AddPO("ge", c.GeWords(a, b))
	})
	for va := uint64(0); va < 1<<width; va++ {
		for vb := uint64(0); vb < 1<<width; vb++ {
			out := evalUints(c, width, va, vb)
			want := []bool{va == vb, va != vb, va < vb, va <= vb, va > vb, va >= vb}
			for i, w := range want {
				if out[i] != w {
					t.Fatalf("cmp %d vs %d: output %s = %v, want %v",
						va, vb, c.PONames()[i], out[i], w)
				}
			}
		}
	}
}

func TestEqConst(t *testing.T) {
	const width = 5
	for _, k := range []uint64{0, 1, 13, 31, 32, 1000} {
		c := New()
		a := c.AddPIWord("a", width)
		c.AddPO("z", c.EqConst(a, k))
		for va := uint64(0); va < 1<<width; va++ {
			assign := make([]bool, width)
			for i := 0; i < width; i++ {
				assign[i] = va>>uint(i)&1 == 1
			}
			got := c.Eval(assign)[0]
			if got != (va == k) {
				t.Fatalf("EqConst(%d) at %d = %v", k, va, got)
			}
		}
	}
}

func TestEqConstZeroWidth(t *testing.T) {
	c := New()
	c.AddPI("pad")
	c.AddPO("z0", c.EqConst(Word{}, 0))
	c.AddPO("z1", c.EqConst(Word{}, 1))
	out := c.Eval([]bool{false})
	if out[0] != true || out[1] != false {
		t.Fatalf("EqConst on empty word = %v", out)
	}
}

func TestLtConst(t *testing.T) {
	const width = 5
	for _, k := range []uint64{0, 1, 7, 31, 32, 100} {
		c := New()
		a := c.AddPIWord("a", width)
		c.AddPO("z", c.LtConst(a, k))
		for va := uint64(0); va < 1<<width; va++ {
			assign := make([]bool, width)
			for i := 0; i < width; i++ {
				assign[i] = va>>uint(i)&1 == 1
			}
			if got := c.Eval(assign)[0]; got != (va < k) {
				t.Fatalf("LtConst(%d) at %d = %v", k, va, got)
			}
		}
	}
}

func TestClz64(t *testing.T) {
	if got := clz64(0); got != 64 {
		t.Fatalf("clz64(0) = %d", got)
	}
	for k := 0; k < 64; k++ {
		if got := clz64(1 << uint(k)); got != 63-k {
			t.Fatalf("clz64(1<<%d) = %d", k, got)
		}
	}
	if got := clz64(^uint64(0)); got != 0 {
		t.Fatalf("clz64(2^64-1) = %d", got)
	}
}

func TestTrees(t *testing.T) {
	c := New()
	var sigs []Signal
	for i := 0; i < 5; i++ {
		sigs = append(sigs, c.AddPI("x"+strconv.Itoa(i)))
	}
	c.AddPO("and", c.AndTree(sigs))
	c.AddPO("or", c.OrTree(sigs))
	c.AddPO("xor", c.XorTree(sigs))
	for pat := 0; pat < 32; pat++ {
		assign := make([]bool, 5)
		all, any, par := true, false, false
		for i := range assign {
			assign[i] = pat>>uint(i)&1 == 1
			all = all && assign[i]
			any = any || assign[i]
			par = par != assign[i]
		}
		out := c.Eval(assign)
		if out[0] != all || out[1] != any || out[2] != par {
			t.Fatalf("trees at %05b: got %v want [%v %v %v]", pat, out, all, any, par)
		}
	}
}

func TestEmptyTrees(t *testing.T) {
	c := New()
	c.AddPI("pad")
	c.AddPO("and", c.AndTree(nil))
	c.AddPO("or", c.OrTree(nil))
	out := c.Eval([]bool{false})
	if out[0] != true || out[1] != false {
		t.Fatalf("empty trees = %v", out)
	}
}

// Property: add/sub round-trip on random widths and values.
func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 2 + rng.Intn(10)
		c := buildTwoBusCircuit(width, func(c *Circuit, a, b Word) {
			// Subtract b by adding its two's complement, (2^width-1)*b.
			negB := c.MulConst(b, 1<<uint(width)-1, width)
			c.AddPOWord("z", c.AddWords(c.AddWords(a, b), negB))
		})
		va := rng.Uint64() & (1<<uint(width) - 1)
		vb := rng.Uint64() & (1<<uint(width) - 1)
		return outWordToUint(evalUints(c, width, va, vb)) == va
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
