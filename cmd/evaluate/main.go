// Command evaluate measures the contest accuracy (hit rate) of a learned
// netlist against a golden reference: either a built-in case or a golden
// netlist file. Both files are read in the format their extension names
// (text netlist, BLIF, Verilog or ASCII AIGER) and verified on load. The
// test set follows the paper's Section V: one third of the patterns biased
// toward 1s, one third toward 0s, one third uniform.
//
// Usage:
//
//	evaluate -case case_16 -learned learned.net -patterns 1500000
//	evaluate -golden golden.net -learned learned.net
package main

import (
	"flag"
	"fmt"
	"os"

	"logicregression/internal/cases"
	"logicregression/internal/check"
	"logicregression/internal/eval"
	"logicregression/internal/oracle"
)

func main() {
	var (
		caseName = flag.String("case", "", "built-in golden case name")
		golden   = flag.String("golden", "", "golden netlist file")
		learned  = flag.String("learned", "", "learned netlist file (required)")
		patterns = flag.Int("patterns", 150000, "number of test assignments (paper: 1500000)")
		seed     = flag.Int64("seed", 12345, "test-pattern seed")
		perOut   = flag.Bool("per-output", false, "print per-output bit accuracy")
		directed = flag.Bool("directed", false, "also test corner patterns (all-0s/1s, walking bits)")
	)
	flag.Parse()

	if *learned == "" {
		fmt.Fprintln(os.Stderr, "evaluate: -learned is required")
		os.Exit(1)
	}
	var goldenOracle oracle.Oracle
	switch {
	case *caseName != "":
		c, err := cases.ByName(*caseName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
			os.Exit(1)
		}
		goldenOracle = c.Oracle()
	case *golden != "":
		c, err := check.ReadCircuitFile(*golden)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
			os.Exit(1)
		}
		goldenOracle = oracle.FromCircuit(c)
	default:
		fmt.Fprintln(os.Stderr, "evaluate: -case or -golden is required")
		os.Exit(1)
	}
	lc, err := check.ReadCircuitFile(*learned)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}

	rep := eval.Measure(goldenOracle, oracle.FromCircuit(lc), eval.Config{
		Patterns: *patterns,
		Seed:     *seed,
		Directed: *directed,
	})
	fmt.Printf("accuracy  %.4f%%  (%d/%d hits)\n", rep.Accuracy*100, rep.Hits, rep.Patterns)
	fmt.Printf("pools     high-1s %.4f%%  high-0s %.4f%%  uniform %.4f%%\n",
		rep.PoolAccuracy[0]*100, rep.PoolAccuracy[1]*100, rep.PoolAccuracy[2]*100)
	fmt.Printf("size      %d 2-input gates\n", lc.Size())
	if *perOut {
		for j, a := range rep.PerOutput {
			fmt.Printf("  output %-24s %.4f%%\n", lc.PONames()[j], a*100)
		}
	}
	if rep.Accuracy >= 0.9999 {
		fmt.Println("verdict   PASS (>= 99.99% contest bar)")
	} else {
		fmt.Println("verdict   below the 99.99% contest bar")
	}
}
