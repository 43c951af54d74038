package circuit

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestVerilogRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		orig := randomCircuit(rng, 6, 30, 3)
		var buf bytes.Buffer
		if err := WriteVerilog(&buf, orig, "t"); err != nil {
			t.Fatal(err)
		}
		back, err := ParseVerilog(&buf)
		if err != nil {
			t.Fatalf("ParseVerilog: %v\n%s", err, buf.String())
		}
		if back.NumPI() != orig.NumPI() || back.NumPO() != orig.NumPO() {
			t.Fatal("arity changed")
		}
		for k := 0; k < 100; k++ {
			a := make([]bool, orig.NumPI())
			for i := range a {
				a[i] = rng.Intn(2) == 1
			}
			w1 := orig.Eval(a)
			w2 := back.Eval(a)
			for j := range w1 {
				if w1[j] != w2[j] {
					t.Fatalf("trial %d: Verilog round trip changed output %d", trial, j)
				}
			}
		}
	}
}

func TestVerilogEscapedIdentifiers(t *testing.T) {
	// Bus-bit names need escaped identifiers.
	c := New()
	a := c.AddPIWord("data", 3)
	c.AddPO("parity[0]", c.XorTree(a))
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, c, "bus"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\\data[0] ") {
		t.Fatalf("escaped identifier missing:\n%s", buf.String())
	}
	back, err := ParseVerilog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.PINames()[0] != "data[0]" || back.PONames()[0] != "parity[0]" {
		t.Fatalf("names lost: %v %v", back.PINames(), back.PONames())
	}
	for m := 0; m < 8; m++ {
		assign := []bool{m&1 == 1, m>>1&1 == 1, m>>2&1 == 1}
		want := assign[0] != assign[1] != assign[2]
		// XOR associativity: recompute properly.
		want = (assign[0] != assign[1]) != assign[2]
		if back.Eval(assign)[0] != want {
			t.Fatalf("parity wrong at %b", m)
		}
	}
}

func TestVlogIDEscaping(t *testing.T) {
	for name, want := range map[string]string{
		"a": "a", "a9": "a9", "_$x": "_$x",
		"9a": "\\9a ", "0": "\\0 ", "a[3]": "\\a[3] ", "*x": "\\*x ",
	} {
		if got := vlogID(name); got != want {
			t.Errorf("vlogID(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestVerilogSlashAndStarNames round-trips names holding the characters
// that open comments: a '*' or '/' that does not follow a '/' is part of a
// name, not a comment.
func TestVerilogSlashAndStarNames(t *testing.T) {
	c := New()
	x := c.AddPI("*x")
	y := c.AddPI("a/b")
	d := c.AddPI("9lives")
	c.AddPO("/z*", c.And(c.Or(x, y), d))
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, c, "names"); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	back, err := ParseVerilog(&buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if got := back.PINames(); len(got) != 3 || got[0] != "*x" || got[1] != "a/b" || got[2] != "9lives" {
		t.Fatalf("input names %q", got)
	}
	if got := back.PONames(); len(got) != 1 || got[0] != "/z*" {
		t.Fatalf("output names %q", got)
	}
	for m := 0; m < 8; m++ {
		a := []bool{m&1 == 1, m>>1&1 == 1, m>>2&1 == 1}
		if got, want := back.Eval(a)[0], c.Eval(a)[0]; got != want {
			t.Fatalf("assignment %03b: %v, want %v", m, got, want)
		}
	}
}

// TestVerilogTrailingSlash: a lone '/' at the end of the source opens no
// comment. After a complete module it is ignored like any trailing token;
// alone it is an error.
func TestVerilogTrailingSlash(t *testing.T) {
	c, err := ParseVerilog(strings.NewReader("module m(a, z); input a; output z; not (z, a); endmodule /"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Eval([]bool{true})[0] {
		t.Fatal("not gate lost")
	}
	if _, err := ParseVerilog(strings.NewReader("/")); err == nil {
		t.Fatal("a lone / parsed")
	}
}

// TestVerilogSinglePort round-trips a module whose port list holds one
// name: a constant output and no inputs.
func TestVerilogSinglePort(t *testing.T) {
	c := New()
	c.AddPO("z", c.Const(true))
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, c, "one"); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	back, err := ParseVerilog(&buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if back.NumPI() != 0 || back.NumPO() != 1 || !back.Eval(nil)[0] {
		t.Fatalf("round trip gave %d inputs, %d outputs\n%s", back.NumPI(), back.NumPO(), text)
	}
}

func TestVerilogConstantsRoundTrip(t *testing.T) {
	c := New()
	a := c.AddPI("a")
	c.AddPO("one", c.Const(true))
	c.AddPO("zero", c.Const(false))
	c.AddPO("same", a)
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, c, ""); err != nil {
		t.Fatal(err)
	}
	back, err := ParseVerilog(&buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := back.Eval([]bool{true})
	if out[0] != true || out[1] != false || out[2] != true {
		t.Fatalf("round trip = %v", out)
	}
}

func TestParseVerilogHandWritten(t *testing.T) {
	text := `// half adder
module ha(a, b, s, c);
  input a, b;
  output s, c;
  /* sum and carry */
  xor u1 (s, a, b);
  and u2 (c, a, b);
endmodule
`
	c, err := ParseVerilog(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		a, b := m&1 == 1, m>>1&1 == 1
		out := c.Eval([]bool{a, b})
		if out[0] != (a != b) || out[1] != (a && b) {
			t.Fatalf("half adder wrong at %b", m)
		}
	}
}

func TestParseVerilogOutOfOrderGates(t *testing.T) {
	text := `module m(a, z);
  input a;
  output z;
  wire t;
  not (z, t);
  buf (t, a);
endmodule
`
	c, err := ParseVerilog(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if c.Eval([]bool{true})[0] != false {
		t.Fatal("out-of-order resolution broken")
	}
}

func TestParseVerilogErrors(t *testing.T) {
	cases := map[string]string{
		"no module":    "input a;\n",
		"no endmodule": "module m(a); input a;\n",
		"bad gate":     "module m(a,z); input a; output z; mux (z, a); endmodule",
		"cycle":        "module m(a,z); input a; output z; wire t; not (t, t); buf (z, t); endmodule",
		"undriven":     "module m(a,z); input a; output z; endmodule",
		"double drive": "module m(a,z); input a; output z; buf (z, a); not (z, a); endmodule",
		"bad arity":    "module m(a,b,z); input a, b; output z; not (z, a, b); endmodule",
		"open comment": "module m(a,z); /* input a; output z; buf(z,a); endmodule",
	}
	for name, text := range cases {
		if _, err := ParseVerilog(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
