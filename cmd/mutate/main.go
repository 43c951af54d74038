// Command mutate is the source mutation gate of internal/mutation: it runs
// one mutant per mutation site on the selected lines of each package,
// tests it with that package's tests, and exits 1 on any surviving mutant
// that the baseline does not triage as equivalent.
//
//	mutate -base origin/main -baseline MUTATION_BASELINE.json   # a change's lines
//	mutate -pkgs internal/sop -v                                # every site of one package
//	mutate -list -base HEAD~1                                   # list the sites only
//
// -base REV selects the lines that `git diff -U0 $(git merge-base REV HEAD)`
// adds or modifies in production .go files, so the working tree's edits
// count and untracked files do not; without -base every site runs. A
// package whose tests fail before mutation is an error (exit 1).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"logicregression/internal/mutation"
)

// defaultPkgs are the learner's packages plus the circuit IR and its checks.
const defaultPkgs = "internal/sampling,internal/support,internal/fbdt,internal/sop,internal/template," +
	"internal/core,internal/opt,internal/circuit,internal/check"

func main() {
	var (
		base     = flag.String("base", "", "mutate only the lines changed since the merge base of this revision and HEAD (default: every site)")
		pkgs     = flag.String("pkgs", defaultPkgs, "comma-separated package directories")
		modRoot  = flag.String("mod-root", ".", "module root directory")
		basePath = flag.String("baseline", "", "MUTATION_BASELINE.json, whose triaged survivors do not fail the run")
		list     = flag.Bool("list", false, "list the selected mutation sites and exit")
		verbose  = flag.Bool("v", false, "print one line per executed mutant")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mutate: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	var pkgList []string
	for _, p := range strings.Split(*pkgs, ",") {
		if p = strings.TrimSpace(p); p != "" {
			pkgList = append(pkgList, p)
		}
	}
	var lines mutation.Lines // nil: every site
	if *base != "" {
		var err error
		if lines, err = changedLines(*modRoot, *base, pkgList); err != nil {
			fail("%v", err)
		}
	}
	if *list {
		for _, pkg := range pkgList {
			sites, err := mutation.ListSites(*modRoot, pkg, lines)
			if err != nil {
				fail("%v", err)
			}
			for _, s := range sites {
				fmt.Println(s)
			}
			fmt.Fprintf(os.Stderr, "mutate: %s: %d sites\n", pkg, len(sites))
		}
		return
	}

	var baseline *mutation.Baseline
	if *basePath != "" {
		var err error
		if baseline, err = mutation.ReadBaseline(*basePath); err != nil {
			fail("%v", err)
		}
	}
	cfg := mutation.SourceConfig{ModRoot: *modRoot, Packages: pkgList, Lines: lines}
	if *verbose {
		cfg.Progress = func(line string) { fmt.Println(line) }
	}
	rep, err := mutation.RunSource(cfg)
	if err != nil {
		fail("%v", err)
	}
	if len(rep.Packages) == 0 {
		fmt.Println("mutate: no mutation site on the selected lines")
	}
	for _, pr := range rep.Packages {
		n := pr.Outcomes
		fmt.Printf("mutate: %s: %d mutants, %d killed, %d timed out, %d survived, %d invalid (test timeout %s)\n",
			pr.Package, pr.Sites, n[mutation.Killed], n[mutation.Timeout], n[mutation.Survived], n[mutation.Invalid],
			pr.TestTimeout.Round(time.Second))
		for _, m := range pr.Survivors {
			fmt.Printf("  survivor: %s\n", m)
		}
	}
	untriaged := rep.Untriaged(baseline)
	for _, m := range untriaged {
		fmt.Fprintf(os.Stderr, "mutate: untriaged survivor: %s\n", m)
	}
	if len(untriaged) > 0 {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mutate: "+format+"\n", args...)
	os.Exit(1)
}

// changedLines selects the lines of pkgs that the working tree adds or
// modifies since the merge base of rev and HEAD.
func changedLines(modRoot, rev string, pkgs []string) (mutation.Lines, error) {
	mergeBase, err := git(modRoot, "merge-base", rev, "HEAD")
	if err != nil {
		return nil, err
	}
	// --relative keeps the paths module-relative when the module is a
	// subdirectory of the repository.
	diff, err := git(modRoot, "diff", "-U0", "--relative", strings.TrimSpace(mergeBase))
	if err != nil {
		return nil, err
	}
	return mutation.ChangedLines(diff, pkgs)
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return string(out), nil
}
