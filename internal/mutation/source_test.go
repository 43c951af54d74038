package mutation

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleSrc = `package sample

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SumTo adds the first few naturals, bailing out early on negative n.
func SumTo(n int) int {
	s := 0
	if n < 0 {
		return 0
	}
	for i := 0; i < 8; i++ {
		s = s + i
	}
	return s
}

func flag(a, b bool) bool { return a && b }

func note(s string) string { return "n:" + s }

func early(p *int) {
	if p == nil {
		return
	}
	*p++
}
`

func writeSample(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "sample.go")
	if err := os.WriteFile(path, []byte(sampleSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseSourceFileSites(t *testing.T) {
	path := writeSample(t)
	sf, err := parseSourceFile(path, "sample.go")
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string]int{}
	for _, s := range sf.sites {
		byOp[s.mutant.Op]++
	}
	// Every operator family must fire on the sample.
	for _, op := range []string{OpCondBoundary, OpNegateCond, OpArith, OpLogic, OpOffByOne, OpDropReturn} {
		if byOp[op] == 0 {
			t.Errorf("operator %s found no sites; got %v", op, byOp)
		}
	}
	// String concatenation must NOT be an arith site: note()'s "+" on
	// strings has no arithmetic partner, so the only arith site is s + i.
	if byOp[OpArith] != 1 {
		t.Errorf("arith sites = %d, want 1 (s + i only; string + must be skipped)", byOp[OpArith])
	}
	// Only the loop-condition literal 8 is an off-by-one site; the init 0
	// and other literals are not.
	if byOp[OpOffByOne] != 1 {
		t.Errorf("off-by-one sites = %d, want 1 (the loop bound 8)", byOp[OpOffByOne])
	}
	// Determinism: re-parsing yields the identical site list.
	sf2, err := parseSourceFile(path, "sample.go")
	if err != nil {
		t.Fatal(err)
	}
	var m1, m2 []SourceMutant
	for _, s := range sf.sites {
		m1 = append(m1, s.mutant)
	}
	for _, s := range sf2.sites {
		m2 = append(m2, s.mutant)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("site enumeration not deterministic:\n%v\n%v", m1, m2)
	}
}

func TestMutateUndoRoundTrip(t *testing.T) {
	path := writeSample(t)
	sf, err := parseSourceFile(path, "sample.go")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := sf.render()
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "mut.go")
	for i, s := range sf.sites {
		if err := mutateToFile(sf, i, dst); err != nil {
			t.Fatalf("site %d (%s): %v", i, s.mutant, err)
		}
		mut, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(mut, orig) {
			t.Errorf("site %d (%s): mutant identical to original", i, s.mutant)
		}
		after, err := sf.render()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, orig) {
			t.Fatalf("site %d (%s): undo did not restore the AST", i, s.mutant)
		}
	}
}

func TestChangedLines(t *testing.T) {
	pkgs := []string{"internal/opt", "internal/sop/"}
	tests := []struct {
		name string
		diff string
		want Lines
	}{
		{
			name: "one-line hunk",
			diff: `diff --git a/internal/opt/opt.go b/internal/opt/opt.go
index 1111111..2222222 100644
--- a/internal/opt/opt.go
+++ b/internal/opt/opt.go
@@ -12 +12 @@ func Fraig(g *aig.AIG, cfg Config) *aig.AIG {
-	a := 1
+	a := 2
`,
			want: Lines{"internal/opt/opt.go": {12: true}},
		},
		{
			name: "multi-line hunk and a second hunk",
			diff: `diff --git a/internal/opt/opt.go b/internal/opt/opt.go
--- a/internal/opt/opt.go
+++ b/internal/opt/opt.go
@@ -10 +12,3 @@ func f() {
-	x()
+	y()
+	z()
+	w()
@@ -40,2 +42 @@ func g() {
-	a()
-	b()
+	c()
`,
			want: Lines{"internal/opt/opt.go": {12: true, 13: true, 14: true, 42: true}},
		},
		{
			name: "pure deletion",
			diff: `diff --git a/internal/opt/opt.go b/internal/opt/opt.go
--- a/internal/opt/opt.go
+++ b/internal/opt/opt.go
@@ -13,2 +12,0 @@ func f() {
-	x()
-	y()
`,
			want: Lines{},
		},
		{
			name: "new file",
			diff: `diff --git a/internal/sop/new.go b/internal/sop/new.go
new file mode 100644
index 0000000..3333333
--- /dev/null
+++ b/internal/sop/new.go
@@ -0,0 +1,3 @@
+package sop
+
+func New() {}
`,
			want: Lines{"internal/sop/new.go": {1: true, 2: true, 3: true}},
		},
		{
			name: "renamed file",
			diff: `diff --git a/internal/sop/old.go b/internal/sop/renamed.go
similarity index 90%
rename from internal/sop/old.go
rename to internal/sop/renamed.go
index 4444444..5555555 100644
--- a/internal/sop/old.go
+++ b/internal/sop/renamed.go
@@ -7 +7,2 @@ func f() {
-	x()
+	y()
+	z()
`,
			want: Lines{"internal/sop/renamed.go": {7: true, 8: true}},
		},
		{
			name: "test file, file outside the packages, subpackage, deleted file",
			diff: `diff --git a/internal/opt/opt_test.go b/internal/opt/opt_test.go
--- a/internal/opt/opt_test.go
+++ b/internal/opt/opt_test.go
@@ -3 +3 @@
-	a()
+	b()
diff --git a/internal/core/core.go b/internal/core/core.go
--- a/internal/core/core.go
+++ b/internal/core/core.go
@@ -3 +3 @@
-	a()
+	b()
diff --git a/internal/opt/sub/sub.go b/internal/opt/sub/sub.go
--- a/internal/opt/sub/sub.go
+++ b/internal/opt/sub/sub.go
@@ -3 +3 @@
-	a()
+	b()
diff --git a/internal/opt/gone.go b/internal/opt/gone.go
deleted file mode 100644
--- a/internal/opt/gone.go
+++ /dev/null
@@ -1,2 +0,0 @@
-package opt
-
`,
			want: Lines{},
		},
		{
			// An added line that reads "++ b/..." must not switch files.
			name: "added line shaped like a file header",
			diff: `diff --git a/internal/opt/opt.go b/internal/opt/opt.go
--- a/internal/opt/opt.go
+++ b/internal/opt/opt.go
@@ -5 +5,2 @@
+++ b/internal/sop/x.go
+	y()
@@ -9,0 +11 @@
+	z()
`,
			want: Lines{"internal/opt/opt.go": {5: true, 6: true, 11: true}},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ChangedLines(tc.diff, pkgs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ChangedLines = %v, want %v", got, tc.want)
			}
		})
	}

	bad := "diff --git a/internal/opt/opt.go b/internal/opt/opt.go\n+++ b/internal/opt/opt.go\n@@ -1 +x @@\n"
	if _, err := ChangedLines(bad, pkgs); err == nil {
		t.Fatal("ChangedLines accepted a malformed hunk header")
	}
}

// smokeLib is the production file of the hermetic module TestRunSourceSmoke
// mutates: every site of Abs is killed by its test, and no test reaches Dead.
const smokeLib = `package lib

// Abs returns the absolute value of v.
func Abs(v int) int {
	if v > -1 {
		return v
	}
	return -v
}

// Dead clamps v to at most 10.
func Dead(v int) int {
	if v > 10 {
		return 10
	}
	return v
}
`

const smokeTest = `package lib

import "testing"

func TestAbs(t *testing.T) {
	if Abs(-3) != 3 || Abs(-1) != 1 || Abs(4) != 4 {
		t.Fatal("abs broken")
	}
}
`

// writeModule writes a one-package module "smoke" with lib/lib.go and
// lib/lib_test.go.
func writeModule(t *testing.T, lib, test string) string {
	t.Helper()
	mod := t.TempDir()
	if err := os.Mkdir(filepath.Join(mod, "lib"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"go.mod":                            "module smoke\n\ngo 1.21\n",
		filepath.Join("lib", "lib.go"):      lib,
		filepath.Join("lib", "lib_test.go"): test,
	} {
		if err := os.WriteFile(filepath.Join(mod, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return mod
}

// libDiff is a `git diff -U0` of lib/lib.go whose one hunk changes line.
func libDiff(line int) string {
	return fmt.Sprintf("diff --git a/lib/lib.go b/lib/lib.go\n--- a/lib/lib.go\n+++ b/lib/lib.go\n@@ -%d +%d @@\n-\told\n+\tnew\n", line, line)
}

// TestRunSourceSmoke runs the overlay pipeline on a hermetic module, with
// the lines a diff changes as its input. An edit to one function runs that
// function's sites and no other: an edit to Abs runs Abs's two sites and
// both are killed, and an edit to Dead surfaces Dead's two survivors, which
// fail the gate until the baseline triages them. A module whose tests
// already fail is an error, not a run of kills.
func TestRunSourceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build/test subprocesses")
	}
	mod := writeModule(t, smokeLib, smokeTest)
	run := func(t *testing.T, diff string) (*SourceReport, []string) {
		t.Helper()
		lines, err := ChangedLines(diff, []string{"lib"})
		if err != nil {
			t.Fatal(err)
		}
		sites, err := ListSites(mod, "lib", lines)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, s := range sites {
			keys = append(keys, s.String())
		}
		rep, err := RunSource(SourceConfig{ModRoot: mod, Packages: []string{"lib"}, Lines: lines})
		if err != nil {
			t.Fatal(err)
		}
		return rep, keys
	}
	mutantKeys := func(ms []SourceMutant) []string {
		var keys []string
		for _, m := range ms {
			keys = append(keys, m.String())
		}
		return keys
	}

	t.Run("edit to Abs", func(t *testing.T) {
		rep, keys := run(t, libDiff(5))
		want := []string{
			"lib/lib.go:5:5: negate-cond (cond -> !(cond))",
			"lib/lib.go:5:7: cond-boundary (> -> >=)",
		}
		if !reflect.DeepEqual(keys, want) {
			t.Fatalf("sites = %q, want Abs's %q", keys, want)
		}
		if len(rep.Packages) != 1 || rep.Packages[0].Outcomes[Killed] != len(want) || rep.Packages[0].Sites != len(want) {
			t.Fatalf("want both Abs mutants killed: %+v", rep.Packages)
		}
		if u := rep.Untriaged(nil); len(u) != 0 {
			t.Fatalf("gate failed on %v", u)
		}
	})

	t.Run("edit to Dead", func(t *testing.T) {
		rep, keys := run(t, libDiff(13))
		want := []string{
			"lib/lib.go:13:5: negate-cond (cond -> !(cond))",
			"lib/lib.go:13:7: cond-boundary (> -> >=)",
		}
		if !reflect.DeepEqual(keys, want) {
			t.Fatalf("sites = %q, want Dead's %q", keys, want)
		}
		if got := mutantKeys(rep.Untriaged(nil)); !reflect.DeepEqual(got, want) {
			t.Fatalf("untriaged survivors = %q, want %q", got, want)
		}
		b := &Baseline{}
		for _, k := range want {
			b.TriagedSurvivors = append(b.TriagedSurvivors, Triage{Mutant: k, Reason: "untested by design"})
		}
		if u := rep.Untriaged(b); len(u) != 0 {
			t.Fatalf("gate failed on triaged survivors %v", u)
		}
	})

	t.Run("tests already fail", func(t *testing.T) {
		broken := writeModule(t, smokeLib, strings.Replace(smokeTest, "Abs(4) != 4", "Abs(4) != 5", 1))
		_, err := RunSource(SourceConfig{ModRoot: broken, Packages: []string{"lib"}})
		if err == nil || !strings.Contains(err.Error(), "tests fail before mutation") {
			t.Fatalf("RunSource on a failing package: err = %v, want the unmutated failure", err)
		}
	})
}
