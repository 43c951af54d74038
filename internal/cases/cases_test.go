package cases

import (
	"bytes"
	"math/rand"
	"testing"

	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
	"logicregression/internal/template"
)

// tableII is the circuit-info section of Table II (name, type, #PI, #PO).
var tableII = []struct {
	name   string
	typ    Category
	pi, po int
	hidden bool
}{
	{"case_1", ECO, 121, 38, false},
	{"case_2", DATA, 53, 19, false},
	{"case_3", DIAG, 72, 1, false},
	{"case_4", ECO, 56, 5, false},
	{"case_5", NEQ, 87, 16, false},
	{"case_6", DIAG, 76, 1, false},
	{"case_7", ECO, 43, 7, false},
	{"case_8", DIAG, 44, 5, false},
	{"case_9", ECO, 173, 16, false},
	{"case_10", NEQ, 37, 2, false},
	{"case_11", NEQ, 60, 20, true},
	{"case_12", DATA, 40, 26, true},
	{"case_13", ECO, 43, 7, true},
	{"case_14", NEQ, 50, 22, true},
	{"case_15", DIAG, 80, 3, true},
	{"case_16", DIAG, 26, 4, true},
	{"case_17", ECO, 76, 33, true},
	{"case_18", NEQ, 102, 2, true},
	{"case_19", ECO, 73, 8, true},
	{"case_20", DIAG, 51, 2, true},
}

func TestAllMatchesTableII(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("got %d cases", len(all))
	}
	for i, want := range tableII {
		c := all[i]
		if c.Name != want.name || c.Type != want.typ {
			t.Errorf("case %d: %s/%s, want %s/%s", i, c.Name, c.Type, want.name, want.typ)
		}
		if c.Circuit.NumPI() != want.pi || c.Circuit.NumPO() != want.po {
			t.Errorf("%s: %d PI / %d PO, want %d/%d",
				c.Name, c.Circuit.NumPI(), c.Circuit.NumPO(), want.pi, want.po)
		}
		if c.Hidden != want.hidden {
			t.Errorf("%s: hidden = %v", c.Name, c.Hidden)
		}
	}
}

func TestOraclesValidate(t *testing.T) {
	for _, c := range All() {
		if err := oracle.Validate(c.Oracle()); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := All()
	b := All()
	for i := range a {
		var bufA, bufB bytes.Buffer
		if err := circuit.WriteNetlist(&bufA, a[i].Circuit); err != nil {
			t.Fatal(err)
		}
		if err := circuit.WriteNetlist(&bufB, b[i].Circuit); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
			t.Fatalf("%s: non-deterministic construction", a[i].Name)
		}
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("case_12")
	if err != nil || c.Type != DATA {
		t.Fatalf("ByName: %v %v", c, err)
	}
	if _, err := ByName("case_99"); err == nil {
		t.Fatal("ByName accepted unknown case")
	}
}

func TestNamesOrder(t *testing.T) {
	n := Names()
	if len(n) != 20 || n[0] != "case_1" || n[19] != "case_20" {
		t.Fatalf("Names = %v", n)
	}
}

func TestDIAGCasesAreTemplateMatchable(t *testing.T) {
	for _, name := range []string{"case_3", "case_6", "case_8", "case_15", "case_16", "case_20"} {
		c, _ := ByName(name)
		m := template.Detect(c.Oracle(), template.Config{Samples: 512, Verify: 24}, rand.New(rand.NewSource(1)))
		covered := m.MatchedOutputs()
		if len(covered) != c.Circuit.NumPO() {
			t.Errorf("%s: templates cover %d/%d outputs", name, len(covered), c.Circuit.NumPO())
		}
	}
}

func TestDATACasesAreLinearMatchable(t *testing.T) {
	for _, name := range []string{"case_2", "case_12"} {
		c, _ := ByName(name)
		m := template.Detect(c.Oracle(), template.Config{Samples: 64, Verify: 24}, rand.New(rand.NewSource(2)))
		covered := m.MatchedOutputs()
		if len(covered) != c.Circuit.NumPO() {
			t.Errorf("%s: templates cover %d/%d outputs (linear=%d)",
				name, len(covered), c.Circuit.NumPO(), len(m.Linear))
		}
	}
}

func TestECOOutputsHaveModerateSupport(t *testing.T) {
	for _, name := range []string{"case_1", "case_7", "case_13"} {
		c, _ := ByName(name)
		for po := 0; po < c.Circuit.NumPO(); po++ {
			sup := c.Circuit.StructuralSupport(po)
			if len(sup) > 16 {
				t.Errorf("%s output %d: structural support %d too wide for its tier",
					name, po, len(sup))
			}
		}
	}
}

func TestHardCasesAreWide(t *testing.T) {
	for _, name := range []string{"case_9", "case_14", "case_18"} {
		c, _ := ByName(name)
		if !c.Hard {
			t.Errorf("%s not marked hard", name)
		}
		wide := false
		for po := 0; po < c.Circuit.NumPO(); po++ {
			if len(c.Circuit.StructuralSupport(po)) >= 25 {
				wide = true
			}
		}
		if !wide {
			t.Errorf("%s: no wide-support output", name)
		}
	}
}

func TestMiterOutputsNotAllConstant(t *testing.T) {
	// NEQ miters must actually be non-equivalent for most outputs:
	// sample each output and require at least one disagreement overall.
	rng := rand.New(rand.NewSource(3))
	for _, name := range []string{"case_5", "case_10", "case_11", "case_14"} {
		c, _ := ByName(name)
		o := c.Oracle()
		nonConst := 0
		for po := 0; po < c.Circuit.NumPO(); po++ {
			seen0, seen1 := false, false
			for k := 0; k < 200 && !(seen0 && seen1); k++ {
				a := make([]bool, o.NumInputs())
				for i := range a {
					a[i] = rng.Intn(2) == 1
				}
				if o.Eval(a)[po] {
					seen1 = true
				} else {
					seen0 = true
				}
			}
			if seen0 && seen1 {
				nonConst++
			}
		}
		if nonConst == 0 {
			t.Errorf("%s: every miter output looks constant", name)
		}
	}
}

// TestByNameMatchesAll checks that the table behind ByName and Names
// agrees with All: Names lists Table II's names in order, and ByName(n)
// builds a case with name n whose Verilog is byte-identical to All()'s
// case n.
func TestByNameMatchesAll(t *testing.T) {
	all := All()
	names := Names()
	if len(names) != len(tableII) {
		t.Fatalf("Names has %d entries, want %d", len(names), len(tableII))
	}
	verilog := func(c *Case) []byte {
		var buf bytes.Buffer
		if err := circuit.WriteVerilog(&buf, c.Circuit, "top"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for i, name := range names {
		if name != tableII[i].name {
			t.Fatalf("Names()[%d] = %s, want %s", i, name, tableII[i].name)
		}
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name != name || c.Type != all[i].Type || c.Hidden != all[i].Hidden || c.Paper != all[i].Paper || c.Hard != all[i].Hard {
			t.Fatalf("ByName(%s) = %s/%s, All has %s/%s", name, c.Name, c.Type, all[i].Name, all[i].Type)
		}
		if !bytes.Equal(verilog(c), verilog(all[i])) {
			t.Fatalf("ByName(%s): Verilog differs from All()'s", name)
		}
	}
}
