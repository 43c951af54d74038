package analyzers

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logicregression/internal/analysis"
)

// TestDeadBranchCacheInvalidation exercises the cached driver with a
// value-flow analyzer: deadbranch's verdict in package hot exists only
// because constant propagation folds a constant imported from package
// mode, so editing mode must reach hot's cache key — including under a
// narrow pattern where mode is not a unit of the run — while the unrelated
// package calm keeps replaying.
func TestDeadBranchCacheInvalidation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list on a temp module")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/constcache\n\ngo 1.21\n",
		"mode/mode.go": `package mode

const Threshold = 1
`,
		"hot/hot.go": `package hot

import "example.com/constcache/mode"

func Pick(x int) int {
	v := mode.Threshold
	if v > 0 {
		return x
	}
	return -x
}
`,
		"calm/calm.go": `package calm

func Double(x int) int { return 2 * x }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := analysis.OpenCache(filepath.Join(dir, "factcache"))
	if err != nil {
		t.Fatal(err)
	}
	d := &analysis.Driver{
		Analyzers: []*analysis.Analyzer{DeadBranch},
		Parallel:  4,
		Cache:     cache,
		Version:   "constcache-test-1",
	}
	run := func(wantUnits int, patterns ...string) (string, analysis.RunStats) {
		t.Helper()
		units, err := analysis.LoadPackages(dir, patterns...)
		if err != nil {
			t.Fatal(err)
		}
		if len(units) != wantUnits {
			t.Fatalf("loaded %d units for %v, want %d", len(units), patterns, wantUnits)
		}
		results, stats, err := d.Run(units)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Unit.ImportPath, r.Err)
			}
			for _, diag := range r.Diags {
				fmt.Fprintf(&sb, "%s: %s (%s)\n", diag.Pos, diag.Message, diag.Analyzer)
			}
		}
		return sb.String(), stats
	}

	// Cold full sweep: the hot/ branch folds through the imported constant.
	cold, stats := run(3, "./...")
	if stats.Cached != 0 || stats.Failed != 0 {
		t.Fatalf("cold stats = %+v, want 0 cached, 0 failed", stats)
	}
	if !strings.Contains(cold, "always true") || !strings.Contains(cold, filepath.Join("hot", "hot.go")) {
		t.Fatalf("missing constant verdict in hot:\n%s", cold)
	}

	// Warm full sweep: every unit replays, output byte-identical.
	warm, stats := run(3, "./...")
	if stats.Cached != 3 {
		t.Fatalf("warm stats = %+v, want 3 cached", stats)
	}
	if warm != cold {
		t.Fatalf("replayed output differs:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}

	// Narrow pattern: hot alone is the unit. Its key is shaped differently
	// here (mode is out-of-run, so it contributes a recursive source hash
	// rather than a published key), so the first narrow run analyzes once
	// and the second replays.
	if _, stats = run(1, "./hot"); stats.Cached != 0 {
		t.Fatalf("narrow cold stats = %+v, want 0 cached", stats)
	}
	if _, stats = run(1, "./hot"); stats.Cached != 1 {
		t.Fatalf("narrow warm stats = %+v, want 1 cached", stats)
	}

	// Edit the dependency's constant. mode is not a unit of the narrow run,
	// but its source reaches hot's cache key through the recursive source
	// hash, so the narrow run must re-analyze and flip the verdict.
	modePath := filepath.Join(dir, "mode", "mode.go")
	if err := os.WriteFile(modePath, []byte("package mode\n\nconst Threshold = -1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	flipped, stats := run(1, "./hot")
	if stats.Cached != 0 {
		t.Fatalf("narrow stats after dep edit = %+v, want 0 cached", stats)
	}
	if !strings.Contains(flipped, "always false") {
		t.Fatalf("dep edit did not flip the constant verdict:\n%s", flipped)
	}

	// Full sweep after the edit: the unrelated package replays; mode is
	// dirty and hot's key inherits mode's new published key, so both
	// re-analyze.
	full, stats := run(3, "./...")
	if stats.Cached != 1 {
		t.Fatalf("full stats after dep edit = %+v, want 1 cached (calm)", stats)
	}
	if !strings.Contains(full, "always false") {
		t.Fatalf("full sweep after dep edit kept the stale verdict:\n%s", full)
	}
}
