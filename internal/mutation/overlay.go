package mutation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// SourceOutcome classifies one source mutant's fate.
type SourceOutcome string

// Outcomes. A timeout counts as a kill (an infinite loop is a detected
// defect); an invalid mutant does not compile and is not counted.
const (
	Killed   SourceOutcome = "killed"
	Survived SourceOutcome = "survived"
	Timeout  SourceOutcome = "timeout"
	Invalid  SourceOutcome = "invalid"
)

// SourceConfig drives a source mutation run.
type SourceConfig struct {
	// ModRoot is the module root directory (where go.mod lives).
	ModRoot string
	// Packages are module-relative package directories, e.g.
	// "internal/circuit".
	Packages []string
	// Lines restricts the run to the sites on these lines (ChangedLines);
	// nil runs every site.
	Lines Lines
	// Progress, when non-nil, receives one line per executed mutant.
	Progress func(string)
}

// SourcePackageReport is one package's run.
type SourcePackageReport struct {
	Package string
	// TestTimeout is each mutant's go test -timeout (testTimeout).
	TestTimeout time.Duration
	// Sites is the number of mutation sites on the selected lines, one
	// mutant each; Outcomes counts them by outcome.
	Sites    int
	Outcomes map[SourceOutcome]int
	// Survivors are the mutants the tests missed: the work list for new
	// tests, and what the baseline triages.
	Survivors []SourceMutant
}

// SourceReport is a full source mutation run. Packages with no site on
// the selected lines are left out.
type SourceReport struct {
	Packages []SourcePackageReport
}

// A mutant's go test -timeout is timeoutFactor times the wall time of the
// package's unmutated go test run, and at least minTestTimeout; DESIGN §8
// gives the reasons for both.
const (
	timeoutFactor  = 10
	minTestTimeout = 30 * time.Second
)

// RunSource runs the mutants of every package: it enumerates the sites on
// the selected lines, runs the package's tests once unmutated to set the
// per-mutant timeout, and then compiles each mutant with `go build
// -overlay` and runs the package's tests against it. It fails when a
// package's tests fail before any mutation, since every mutant would then
// count as killed.
func RunSource(cfg SourceConfig) (*SourceReport, error) {
	if cfg.ModRoot == "" {
		cfg.ModRoot = "."
	}
	tmp, err := os.MkdirTemp("", "mutate-src-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	rep := &SourceReport{}
	for _, pkg := range cfg.Packages {
		files, refs, err := packageSites(cfg.ModRoot, pkg, cfg.Lines)
		if err != nil {
			return nil, err
		}
		if len(refs) == 0 {
			continue
		}
		target := "./" + filepath.ToSlash(pkg)
		timeout, err := testTimeout(cfg.ModRoot, target)
		if err != nil {
			return nil, err
		}
		pr := SourcePackageReport{Package: pkg, TestTimeout: timeout, Sites: len(refs), Outcomes: map[SourceOutcome]int{}}
		for i, ref := range refs {
			sf := files[ref.file]
			mut := sf.sites[ref.site].mutant
			mutPath := filepath.Join(tmp, fmt.Sprintf("m%d.go", i))
			if err := mutateToFile(sf, ref.site, mutPath); err != nil {
				return nil, fmt.Errorf("mutation: render %s: %w", mut, err)
			}
			overlay := filepath.Join(tmp, fmt.Sprintf("ov%d.json", i))
			if err := writeOverlay(overlay, sf.absPath, mutPath); err != nil {
				return nil, err
			}
			outcome := runOneMutant(cfg.ModRoot, target, overlay, timeout)
			pr.Outcomes[outcome]++
			if outcome == Survived {
				pr.Survivors = append(pr.Survivors, mut)
			}
			if cfg.Progress != nil {
				cfg.Progress(fmt.Sprintf("[%d/%d] %s %s: %s", i+1, len(refs), pkg, mut, outcome))
			}
		}
		rep.Packages = append(rep.Packages, pr)
	}
	return rep, nil
}

// testTimeout runs the package's tests unmutated and returns the mutants'
// test timeout from its wall time, or an error when the tests fail.
func testTimeout(modRoot, target string) (time.Duration, error) {
	start := time.Now()
	test := exec.Command("go", "test", "-count=1", target)
	test.Dir = modRoot
	if out, err := test.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("mutation: %s: tests fail before mutation: %s", target, failureLine(out))
	}
	return max(minTestTimeout, timeoutFactor*time.Since(start)), nil
}

// writeOverlay emits a go-build overlay file mapping orig to mutated.
func writeOverlay(path, orig, mutated string) error {
	absOrig, err := filepath.Abs(orig)
	if err != nil {
		return err
	}
	data, err := json.Marshal(map[string]map[string]string{
		"Replace": {absOrig: mutated},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runOneMutant builds and tests one mutant through the overlay.
func runOneMutant(modRoot, target, overlay string, timeout time.Duration) SourceOutcome {
	// Compile first: a mutant that does not build is not a valid mutant.
	build := exec.Command("go", "build", "-overlay", overlay, target)
	build.Dir = modRoot
	if err := build.Run(); err != nil {
		return Invalid
	}

	// Grace period on top of go test's own -timeout so the panic traceback
	// (which is itself a kill signal) normally wins over the hard kill.
	ctx, cancel := context.WithTimeout(context.Background(), timeout+30*time.Second)
	defer cancel()
	test := exec.CommandContext(ctx, "go", "test", "-overlay", overlay, "-count=1",
		fmt.Sprintf("-timeout=%s", timeout), target)
	test.Dir = modRoot
	out, err := test.CombinedOutput()
	switch {
	case err == nil:
		return Survived
	case ctx.Err() != nil || bytes.Contains(out, []byte("test timed out")):
		return Timeout
	}
	return Killed
}

// failureLine extracts the most informative line from failing test output:
// the first "--- FAIL" (which test died) or panic line, else the first line.
func failureLine(out []byte) string {
	for _, line := range strings.Split(string(out), "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "--- FAIL") || strings.HasPrefix(t, "panic:") {
			return t
		}
	}
	first, _, _ := strings.Cut(strings.TrimSpace(string(out)), "\n")
	return first
}
