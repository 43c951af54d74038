// Command optimize runs a script of optimization passes on a standalone
// netlist — the piece the paper delegates to ABC, usable here on any
// circuit. The script defaults to opt.DefaultScript (strash, rewrite, cut
// refactoring, FRAIG, BDD collapse), the script for an arbitrary netlist; a
// learn's own step 5, opt.Optimize, runs only strash, rewrite and FRAIG,
// because on learned covers refactoring and collapse never win. -balance
// appends a balance pass, with or without -script. opt.RunScript documents
// the pass names and rules.
//
//	optimize -in learned.net -out smaller.net
//	optimize -in design.blif -format verilog -out design_opt.v -balance
//	optimize -in learned.net -script "strash; rewrite; fraig" -out fraiged.net
//
// Input format is chosen by extension (.blif, .v/.sv, else text netlist);
// -format picks the output encoding (netlist, blif, verilog, aiger, dot).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"logicregression/internal/aig"
	"logicregression/internal/check"
	"logicregression/internal/circuit"
	"logicregression/internal/opt"
)

func main() {
	var (
		inPath  = flag.String("in", "", "input circuit (required)")
		outPath = flag.String("out", "", "output path (default stdout)")
		format  = flag.String("format", "netlist", "output format: netlist, blif, verilog, aiger, dot")
		seed    = flag.Int64("seed", 1, "FRAIG simulation seed")
		limit   = flag.Duration("time", 60*time.Second, "optimization time limit")
		balance = flag.Bool("balance", false, "append a balance pass to the script (depth balancing; never grows the gate count)")
		script  = flag.String("script", opt.DefaultScript, "pass sequence, semicolon separated (strash, rewrite, refactor, fraig, collapse, balance)")
		verify  = flag.Bool("verify", true, "SAT-verify equivalence of the result")
	)
	flag.Parse()
	if *inPath == "" {
		fmt.Fprintln(os.Stderr, "optimize: -in is required")
		os.Exit(2)
	}
	c, err := check.ReadCircuitFile(*inPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimize:", err)
		os.Exit(2)
	}

	before := c.Stats()
	if *balance {
		*script += "; balance"
	}
	optimized, err := opt.RunScript(c, *script, opt.Config{Seed: *seed, TimeLimit: *limit})
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimize:", err)
		os.Exit(2)
	}
	after := optimized.Stats()
	fmt.Fprintf(os.Stderr, "optimize: %d -> %d gates, depth %d -> %d\n",
		before.Gates, after.Gates, before.Depth, after.Depth)

	if *verify {
		eq, done := opt.ProveEquivalent(c, optimized, 0)
		switch {
		case done && eq:
			fmt.Fprintln(os.Stderr, "optimize: equivalence PROVEN")
		case done:
			fmt.Fprintln(os.Stderr, "optimize: INTERNAL ERROR — result not equivalent; writing original")
			optimized = c
		default:
			fmt.Fprintln(os.Stderr, "optimize: equivalence undecided within budget")
		}
	}

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "optimize:", err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}
	if err := writeAs(w, optimized, *format); err != nil {
		fmt.Fprintln(os.Stderr, "optimize:", err)
		os.Exit(2)
	}
}

func writeAs(w io.Writer, c *circuit.Circuit, format string) error {
	switch format {
	case "netlist":
		return circuit.WriteNetlist(w, c)
	case "blif":
		return circuit.WriteBLIF(w, c, "optimized")
	case "verilog":
		return circuit.WriteVerilog(w, c, "optimized")
	case "aiger":
		return aig.WriteAIGER(w, aig.FromCircuit(c))
	case "dot":
		return circuit.WriteDOT(w, c)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}
