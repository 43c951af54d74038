package names

import (
	"testing"
	"testing/quick"
)

func TestSplitIndexForms(t *testing.T) {
	cases := []struct {
		name  string
		stem  string
		index int
		ok    bool
	}{
		{"a[3]", "a", 3, true},
		{"data[15]", "data", 15, true},
		{"a(2)", "a", 2, true},
		{"bus<7>", "bus", 7, true},
		{"a_3", "a", 3, true},
		{"sig_name_12", "sig_name", 12, true},
		{"a3", "a", 3, true},
		{"addr12", "addr", 12, true},
		{"clk", "", 0, false},
		{"123", "", 0, false},
		{"_5", "", 0, false},
		{"x[-1]", "", 0, false},
		{"x[]", "", 0, false},
		{"x[a]", "", 0, false},
	}
	for _, tc := range cases {
		p := split(tc.name)
		if p.ok != tc.ok {
			t.Errorf("%q: ok = %v, want %v", tc.name, p.ok, tc.ok)
			continue
		}
		if p.ok && (p.stem != tc.stem || p.index != tc.index) {
			t.Errorf("%q: got (%q,%d), want (%q,%d)", tc.name, p.stem, p.index, tc.stem, tc.index)
		}
	}
}

func TestGroupPaperExample(t *testing.T) {
	// Figure 2: a2 a1 a0 form a vector; (1,1,0) encodes 6.
	g := Group([]string{"a2", "a1", "a0", "c", "d"})
	if len(g.Vectors) != 1 {
		t.Fatalf("vectors = %v", g.Vectors)
	}
	v := g.Vectors[0]
	if v.Stem != "a" || v.Width() != 3 {
		t.Fatalf("vector = %+v", v)
	}
	// Ports must be LSB first: a0 at position 2.
	if v.Ports[0] != 2 || v.Ports[1] != 1 || v.Ports[2] != 0 {
		t.Fatalf("ports = %v", v.Ports)
	}
	assignment := []bool{true, true, false, false, false} // a2=1 a1=1 a0=0
	if got := v.Decode(assignment); got != 6 {
		t.Fatalf("Decode = %d, want 6", got)
	}
	if len(g.Singles) != 2 || g.Singles[0] != 3 || g.Singles[1] != 4 {
		t.Fatalf("singles = %v", g.Singles)
	}
}

func TestGroupBracketNames(t *testing.T) {
	g := Group([]string{"x[0]", "x[1]", "x[2]", "y[0]", "y[1]", "en"})
	if len(g.Vectors) != 2 {
		t.Fatalf("vectors = %v", g.Vectors)
	}
	if g.Vectors[0].Stem != "x" || g.Vectors[1].Stem != "y" {
		t.Fatalf("stems = %q %q", g.Vectors[0].Stem, g.Vectors[1].Stem)
	}
	if g.Vectors[0].Ports[0] != 0 || g.Vectors[0].Ports[2] != 2 {
		t.Fatalf("x ports = %v", g.Vectors[0].Ports)
	}
	if len(g.Singles) != 1 || g.Singles[0] != 5 {
		t.Fatalf("singles = %v", g.Singles)
	}
}

func TestGroupSingletonStaysSingle(t *testing.T) {
	g := Group([]string{"a[0]", "b", "c"})
	if len(g.Vectors) != 0 {
		t.Fatalf("vectors = %v", g.Vectors)
	}
	if len(g.Singles) != 3 {
		t.Fatalf("singles = %v", g.Singles)
	}
}

func TestGroupDuplicateIndexFallsBack(t *testing.T) {
	g := Group([]string{"a[1]", "a[1]", "a[2]"})
	if len(g.Vectors) != 0 {
		t.Fatalf("duplicate indices must not form a vector: %v", g.Vectors)
	}
	if len(g.Singles) != 3 {
		t.Fatalf("singles = %v", g.Singles)
	}
}

func TestGroupSparseIndices(t *testing.T) {
	// Non-contiguous indices still order LSB-first by index value.
	g := Group([]string{"v[8]", "v[2]", "v[4]"})
	if len(g.Vectors) != 1 {
		t.Fatalf("vectors = %v", g.Vectors)
	}
	v := g.Vectors[0]
	if v.BitIndex[0] != 2 || v.BitIndex[1] != 4 || v.BitIndex[2] != 8 {
		t.Fatalf("bit indices = %v", v.BitIndex)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := Group([]string{"pad", "n[0]", "n[1]", "n[2]", "n[3]"})
	v := g.Vectors[0]
	assignment := make([]bool, 5)
	for x := uint64(0); x < 16; x++ {
		v.Encode(x, assignment)
		if got := v.Decode(assignment); got != x {
			t.Fatalf("round trip %d -> %d", x, got)
		}
		if assignment[0] {
			t.Fatal("Encode touched unrelated port")
		}
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	g := Group([]string{"w[0]", "w[1]", "w[2]", "w[3]", "w[4]", "w[5]", "w[6]", "w[7]"})
	v := g.Vectors[0]
	f := func(x uint8) bool {
		assignment := make([]bool, 8)
		v.Encode(uint64(x), assignment)
		return v.Decode(assignment) == uint64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupMixedIndexStyles(t *testing.T) {
	// The same stem in different index spellings forms one group per
	// spelling-stem combination; here all parse to stem "q".
	g := Group([]string{"q[0]", "q_1", "q2"})
	if len(g.Vectors) != 1 || g.Vectors[0].Width() != 3 {
		t.Fatalf("grouping = %+v", g)
	}
}

func TestDecodeWideVectorTruncates(t *testing.T) {
	// 70-bit vector: Decode uses the low 64 bits, Encode clears the rest.
	names := make([]string, 70)
	for i := range names {
		names[i] = "w[" + itoa(i) + "]"
	}
	g := Group(names)
	if len(g.Vectors) != 1 || g.Vectors[0].Width() != 70 {
		t.Fatalf("grouping = %+v", g)
	}
	v := g.Vectors[0]
	a := make([]bool, 70)
	a[69] = true // beyond 64 bits: ignored by Decode
	if v.Decode(a) != 0 {
		t.Fatalf("Decode = %d", v.Decode(a))
	}
	v.Encode(5, a)
	if !a[v.Ports[0]] || a[v.Ports[1]] || !a[v.Ports[2]] {
		t.Fatal("Encode low bits wrong")
	}
	if a[v.Ports[69]] {
		t.Fatal("Encode did not clear bit 69")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
