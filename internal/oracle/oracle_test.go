package oracle

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"logicregression/internal/circuit"
)

func xorCircuit() *circuit.Circuit {
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	c.AddPO("z", c.Xor(a, b))
	c.AddPO("w", c.And(a, b))
	return c
}

func TestCircuitOracle(t *testing.T) {
	o := FromCircuit(xorCircuit())
	if o.NumInputs() != 2 || o.NumOutputs() != 2 {
		t.Fatalf("arity %d/%d", o.NumInputs(), o.NumOutputs())
	}
	if o.InputNames()[1] != "b" || o.OutputNames()[0] != "z" {
		t.Fatal("names wrong")
	}
	out := o.Eval([]bool{true, false})
	if out[0] != true || out[1] != false {
		t.Fatalf("Eval = %v", out)
	}
	if err := Validate(o); err != nil {
		t.Fatal(err)
	}
}

func TestFuncOracle(t *testing.T) {
	o := &FuncOracle{
		Ins:  []string{"x"},
		Outs: []string{"y"},
		F:    func(a []bool) []bool { return []bool{!a[0]} },
	}
	if err := Validate(o); err != nil {
		t.Fatal(err)
	}
	if !o.Eval([]bool{false})[0] {
		t.Fatal("inverter oracle wrong")
	}
}

func TestValidateCatchesBadOracle(t *testing.T) {
	bad := &FuncOracle{
		Ins:  []string{"x"},
		Outs: []string{"y", "z"},
		F:    func(a []bool) []bool { return []bool{a[0]} }, // returns 1, claims 2
	}
	if err := Validate(bad); err == nil {
		t.Fatal("Validate accepted arity-lying oracle")
	}
}

func TestCounterCountsScalarAndWordQueries(t *testing.T) {
	cnt := NewCounter(FromCircuit(xorCircuit()))
	cnt.Eval([]bool{true, true})
	cnt.Eval([]bool{false, true})
	if cnt.Queries() != 2 {
		t.Fatalf("Queries = %d, want 2", cnt.Queries())
	}
	EvalWords(cnt, []uint64{0, 0})
	if cnt.Queries() != 66 {
		t.Fatalf("Queries = %d, want 66", cnt.Queries())
	}
}

func TestCounterWordFallbackOnScalarOracle(t *testing.T) {
	inner := &FuncOracle{
		Ins:  []string{"a", "b"},
		Outs: []string{"z"},
		F:    func(a []bool) []bool { return []bool{a[0] != a[1]} },
	}
	cnt := NewCounter(inner)
	rng := rand.New(rand.NewSource(1))
	in := []uint64{rng.Uint64(), rng.Uint64()}
	got := EvalWords(cnt, in)
	want := in[0] ^ in[1]
	if got[0] != want {
		t.Fatalf("fallback EvalWords = %x, want %x", got[0], want)
	}
}

func TestEvalWordsHelperAgreesWithScalar(t *testing.T) {
	o := FromCircuit(xorCircuit())
	rng := rand.New(rand.NewSource(2))
	in := []uint64{rng.Uint64(), rng.Uint64()}
	words := EvalWords(o, in)
	for k := 0; k < 64; k++ {
		a := []bool{in[0]>>uint(k)&1 == 1, in[1]>>uint(k)&1 == 1}
		out := o.Eval(a)
		for j := range out {
			if out[j] != (words[j]>>uint(k)&1 == 1) {
				t.Fatalf("pattern %d output %d mismatch", k, j)
			}
		}
	}
}

func TestMemoCachesAndPreservesValues(t *testing.T) {
	calls := 0
	inner := &FuncOracle{
		Ins:  []string{"a", "b"},
		Outs: []string{"z"},
		F: func(a []bool) []bool {
			calls++
			return []bool{a[0] && a[1]}
		},
	}
	m := NewMemo(inner)
	a := []bool{true, true}
	r1 := m.Eval(a)
	r2 := m.Eval(a)
	if calls != 1 {
		t.Fatalf("inner called %d times, want 1", calls)
	}
	if h := m.Stats().Hits; h != 1 {
		t.Fatalf("Hits = %d, want 1", h)
	}
	if r1[0] != r2[0] || !r1[0] {
		t.Fatal("memo changed value")
	}
	// Mutating the returned slice must not poison the cache.
	r2[0] = false
	if !m.Eval(a)[0] {
		t.Fatal("cache poisoned by caller mutation")
	}
}

// readTranscript reads every query line of a transcript back.
func readTranscript(r io.Reader) (Identity, [][2][]bool, error) {
	tr, err := NewTranscriptReader(r)
	if err != nil {
		return Identity{}, nil, err
	}
	var lines [][2][]bool
	for {
		in, out, err := tr.Next()
		if err == io.EOF {
			return tr.Identity, lines, nil
		}
		if err != nil {
			return tr.Identity, lines, err
		}
		lines = append(lines, [2][]bool{in, out})
	}
}

// TestTranscriptRecordReplay records scalar queries and reads the
// transcript back: the header carries the port names and every query,
// duplicates included, comes back in order with its response.
func TestTranscriptRecordReplay(t *testing.T) {
	inner := FromCircuit(xorCircuit())
	var buf bytes.Buffer
	rec, err := NewRecorder(inner, &buf)
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]bool{{true, false}, {false, false}, {true, true}, {true, false}}
	var want [][]bool
	for _, q := range queries {
		want = append(want, rec.Eval(q))
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}

	ident, lines, err := readTranscript(&buf)
	if err != nil {
		t.Fatalf("%v\ntranscript:\n%s", err, buf.String())
	}
	if !ident.Equal(IdentityOf(inner)) {
		t.Fatalf("header identity %v, want %v", ident, IdentityOf(inner))
	}
	if len(lines) != len(queries) {
		t.Fatalf("read %d query lines, want %d", len(lines), len(queries))
	}
	for i, q := range queries {
		if !slices.Equal(lines[i][0], q) || !slices.Equal(lines[i][1], want[i]) {
			t.Fatalf("line %d = %v -> %v, want %v -> %v", i, lines[i][0], lines[i][1], q, want[i])
		}
	}
}

// TestReplayRejectsMalformedTranscripts: the transcript reader refuses a
// bad header or query line.
func TestReplayRejectsMalformedTranscripts(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"no outputs":   "inputs a b\n",
		"bad header":   "wat a b\noutputs z\n",
		"short line":   "inputs a b\noutputs z\n01\n",
		"bad bits":     "inputs a b\noutputs z\n0x 1\n",
		"width wrong":  "inputs a b\noutputs z\n010 1\n",
		"out too long": "inputs a b\noutputs z\n01 11\n",
	}
	for name, text := range cases {
		if _, _, err := readTranscript(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLearnFromReplayedTranscript records a session and answers the same
// queries offline: a memo preloaded from the transcript, over a black box
// that must never be asked, gives back the golden answers.
func TestLearnFromReplayedTranscript(t *testing.T) {
	golden := xorCircuit()
	var buf bytes.Buffer
	rec, _ := NewRecorder(FromCircuit(golden), &buf)
	for m := 0; m < 4; m++ {
		rec.Eval([]bool{m&1 == 1, m>>1&1 == 1})
	}
	tr, err := NewTranscriptReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	offline := NewMemo(&FuncOracle{Ins: tr.Identity.Ins, Outs: tr.Identity.Outs, F: func(a []bool) []bool {
		t.Fatalf("query %v is not in the transcript", a)
		return nil
	}})
	for {
		in, out, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		offline.Preload(MemoKey(in), out)
	}
	for m := 0; m < 4; m++ {
		a := []bool{m&1 == 1, m>>1&1 == 1}
		if got, want := offline.Eval(a), golden.Eval(a); !slices.Equal(got, want) {
			t.Fatalf("replay of %v = %v, golden %v", a, got, want)
		}
	}
}

// TestReplayErrorText pins the transcript reader's error messages, which
// the shared row codec must not change: the line number counts blank
// lines, and the input field is checked before the output field.
func TestReplayErrorText(t *testing.T) {
	for text, want := range map[string]string{
		"inputs a b\noutputs z\n0x 1\n":    `transcript line 3: bad bit 'x'`,
		"inputs a b\noutputs z\n0x 2\n":    `transcript line 3: bad bit 'x'`,
		"inputs a b\noutputs z\n01 2\n":    `transcript line 3: bad bit '2'`,
		"inputs a b\noutputs z\n\n01 11\n": `transcript line 4 malformed: "01 11"`,
		"outputs z\n":                      `expected "inputs" header, got "outputs z"`,
		"inputs a b\n":                     `transcript missing "outputs" header`,
	} {
		if _, _, err := readTranscript(strings.NewReader(text)); err == nil || err.Error() != want {
			t.Errorf("reading %q: error %v, want %q", text, err, want)
		}
	}
}
