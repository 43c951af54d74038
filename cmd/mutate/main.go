// Command mutate measures the adequacy of the verification stack by running
// the two-level mutation campaign of internal/mutation.
//
//	mutate circuit -seed 1 -budget 10                 # fault-inject the 20 cases
//	mutate circuit -json report.json -baseline MUTATION_BASELINE.json
//	mutate source -pkgs internal/circuit,internal/check -budget 8
//	mutate source -list -pkgs internal/circuit        # enumerate sites only
//
// Both subcommands are deterministic for a fixed -seed. With -baseline the
// run is ratcheted against the checked-in MUTATION_BASELINE.json: untriaged
// circuit-level escapes, any false kill or layer inconsistency, and source
// mutation scores below the package floors all exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"logicregression/internal/cases"
	"logicregression/internal/mutation"
)

// baseline mirrors MUTATION_BASELINE.json.
type baseline struct {
	Circuit struct {
		// TriagedEscapes lists known-unkillable mutants as "case/kind@site"
		// keys; any escape not in this list fails the ratchet.
		TriagedEscapes []string `json:"triaged_escapes"`
	} `json:"circuit"`
	Source struct {
		// MinScore maps package path to the lowest acceptable mutation score.
		MinScore map[string]float64 `json:"min_score"`
	} `json:"source"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "circuit":
		runCircuit(os.Args[2:])
	case "source":
		runSource(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mutate circuit|source [flags]")
	os.Exit(2)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mutate: "+format+"\n", args...)
	os.Exit(1)
}

func loadBaseline(path string) *baseline {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fail("baseline: %v", err)
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		fail("baseline %s: %v", path, err)
	}
	return &b
}

func writeJSON(path string, v any) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fail("encode report: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail("write report: %v", err)
	}
}

func runCircuit(args []string) {
	fs := flag.NewFlagSet("mutate circuit", flag.ExitOnError)
	var (
		seed         = fs.Int64("seed", 1, "campaign seed (per-case samples derive from it)")
		budget       = fs.Int("budget", 10, "max mutants per case (0 = every fault site)")
		maxConflicts = fs.Int64("max-conflicts", 20000, "SAT conflict budget per CEC check, shared by all outputs' proofs (0 = unlimited)")
		bddBudget    = fs.Int("bdd-budget", 1<<21, "BDD node budget per case manager")
		caseList     = fs.String("cases", "", "comma-separated case names (default: all 20)")
		jsonOut      = fs.String("json", "", "write the full report to this file")
		basePath     = fs.String("baseline", "", "ratchet against this MUTATION_BASELINE.json")
		verbose      = fs.Bool("v", false, "print one line per case")
	)
	fs.Parse(args)
	base := loadBaseline(*basePath)

	selected := cases.All()
	if *caseList != "" {
		selected = nil
		for _, name := range strings.Split(*caseList, ",") {
			cs, err := cases.ByName(strings.TrimSpace(name))
			if err != nil {
				fail("%v", err)
			}
			selected = append(selected, cs)
		}
	}

	rep := &mutation.Report{
		Seed:   *seed,
		Budget: *budget,
		Layers: mutation.Layers{MaxConflicts: *maxConflicts, BDDBudget: *bddBudget},
	}
	for _, cs := range selected {
		start := time.Now()
		rep.RunCircuit(cs.Name, cs.Circuit, *budget)
		if *verbose {
			cr := rep.Cases[len(rep.Cases)-1]
			fmt.Printf("%-10s %6.1fs mutants=%-3d changed=%-3d killed=%-3d escapes=%d\n",
				cs.Name, time.Since(start).Seconds(), cr.Mutants, cr.Changed, cr.Killed, len(cr.Escaped))
		}
	}
	writeJSON(*jsonOut, rep)

	t := rep.Totals
	fmt.Printf("mutate circuit: %d mutants, %d changed, %d killed, %d escaped, %d false kills, %d inconsistent\n",
		t.Mutants, t.Changed, t.Killed, t.Escaped, t.FalseKills, t.Inconsistent)
	printKillMatrix(rep)

	bad := 0
	if t.FalseKills > 0 {
		fmt.Fprintf(os.Stderr, "mutate: %d false kill(s): an equivalence layer killed a semantics-preserving mutant\n", t.FalseKills)
		bad++
	}
	if t.Inconsistent > 0 {
		fmt.Fprintf(os.Stderr, "mutate: %d inconsistent mutant(s): complete layers disagreed\n", t.Inconsistent)
		bad++
	}
	triaged := map[string]bool{}
	if base != nil {
		for _, k := range base.Circuit.TriagedEscapes {
			triaged[k] = true
		}
	}
	for _, k := range rep.EscapeKeys() {
		if triaged[k] {
			fmt.Printf("mutate: escape %s (triaged in baseline)\n", k)
			continue
		}
		fmt.Fprintf(os.Stderr, "mutate: untriaged escape: %s\n", k)
		bad++
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// printKillMatrix renders fault kind x first-killing layer as a table.
func printKillMatrix(rep *mutation.Report) {
	cols := append(append([]string{}, mutation.LayerOrder...), "none")
	var kinds []string
	for k := range rep.KillMatrix {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	fmt.Printf("%-16s", "kind")
	for _, c := range cols {
		fmt.Printf("%9s", c)
	}
	fmt.Println()
	for _, k := range kinds {
		row := rep.KillMatrix[mutation.Kind(k)]
		fmt.Printf("%-16s", k)
		for _, c := range cols {
			fmt.Printf("%9d", row[c])
		}
		fmt.Println()
	}
}

func runSource(args []string) {
	fs := flag.NewFlagSet("mutate source", flag.ExitOnError)
	var (
		seed     = fs.Int64("seed", 1, "campaign seed (per-package samples derive from it)")
		budget   = fs.Int("budget", 8, "max mutants per package (0 = every site)")
		pkgs     = fs.String("pkgs", "internal/circuit,internal/check", "comma-separated package directories")
		timeout  = fs.Duration("timeout", 2*time.Minute, "per-mutant test timeout")
		modRoot  = fs.String("mod-root", ".", "module root directory")
		jsonOut  = fs.String("json", "", "write the full report to this file")
		basePath = fs.String("baseline", "", "ratchet against this MUTATION_BASELINE.json")
		list     = fs.Bool("list", false, "enumerate mutation sites and exit")
		verbose  = fs.Bool("v", false, "print one line per executed mutant")
	)
	fs.Parse(args)
	base := loadBaseline(*basePath)

	var pkgList []string
	for _, p := range strings.Split(*pkgs, ",") {
		if p = strings.TrimSpace(p); p != "" {
			pkgList = append(pkgList, p)
		}
	}
	if *list {
		for _, pkg := range pkgList {
			sites, err := mutation.ListSites(*modRoot, pkg)
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

	cfg := mutation.SourceConfig{
		ModRoot:     *modRoot,
		Packages:    pkgList,
		Seed:        *seed,
		Budget:      *budget,
		TestTimeout: *timeout,
	}
	if *verbose {
		cfg.Progress = func(line string) { fmt.Println(line) }
	}
	rep, err := mutation.RunSource(cfg)
	if err != nil {
		fail("%v", err)
	}
	writeJSON(*jsonOut, rep)

	bad := 0
	for _, pr := range rep.Packages {
		fmt.Printf("mutate source: %-20s sites=%-4d executed=%-3d killed=%-3d timeout=%-2d survived=%-3d invalid=%-2d score=%.2f\n",
			pr.Package, pr.Sites, pr.Executed, pr.Killed, pr.Timeout, pr.Survived, pr.Invalid, pr.Score)
		for _, s := range pr.Survivors {
			fmt.Printf("  survivor: %s\n", s.Mutant)
		}
		if base != nil {
			if min, ok := base.Source.MinScore[pr.Package]; ok && pr.Score < min {
				fmt.Fprintf(os.Stderr, "mutate: %s score %.2f below baseline floor %.2f\n", pr.Package, pr.Score, min)
				bad++
			}
		}
	}
	fmt.Printf("mutate source: aggregate score %.2f\n", rep.Score)
	if bad > 0 {
		os.Exit(1)
	}
}
