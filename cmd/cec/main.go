// Command cec is a combinational equivalence checker over our SAT engine —
// the non-equivalence-diagnosis application that motivates the paper's
// problem. It compares two circuits (text netlist, BLIF, Verilog or ASCII
// AIGER, selected by extension and verified on load) output by output and
// prints a distinguishing input assignment when they differ.
//
//	cec golden.net learned.net
//	cec -conflicts 100000 a.blif b.v
//
// Exit status: 0 equivalent, 1 different, 2 undecided/error.
package main

import (
	"flag"
	"fmt"
	"os"

	"logicregression/internal/check"
	"logicregression/internal/opt"
	"logicregression/internal/sat"
)

func main() {
	conflicts := flag.Int64("conflicts", 0, "SAT conflict budget shared by all outputs' proofs (0 = unlimited)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cec [-conflicts N] <circuit1> <circuit2>")
		os.Exit(2)
	}
	c1, err := check.ReadCircuitFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cec:", err)
		os.Exit(2)
	}
	c2, err := check.ReadCircuitFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cec:", err)
		os.Exit(2)
	}
	if c1.NumPI() != c2.NumPI() || c1.NumPO() != c2.NumPO() {
		fmt.Printf("NOT EQUIVALENT: interface mismatch (%d/%d PIs, %d/%d POs)\n",
			c1.NumPI(), c2.NumPI(), c1.NumPO(), c2.NumPO())
		os.Exit(1)
	}

	verdict, cex, bad := opt.Diagnose(c1, c2, *conflicts)
	switch verdict {
	case sat.Unsat:
		fmt.Printf("EQUIVALENT (%d outputs, %d vs %d gates)\n", c1.NumPO(), c1.Size(), c2.Size())
	case sat.Sat:
		fmt.Printf("NOT EQUIVALENT at output %q\n", c1.PONames()[bad])
		fmt.Println("counterexample:")
		names := c1.PINames()
		for i, v := range cex {
			bit := '0'
			if v {
				bit = '1'
			}
			fmt.Printf("  %s = %c\n", names[i], bit)
		}
		v1 := c1.Eval(cex)[bad]
		v2 := c2.Eval(cex)[bad]
		fmt.Printf("  -> %s: first=%v second=%v\n", c1.PONames()[bad], v1, v2)
		os.Exit(1)
	default:
		fmt.Println("UNDECIDED: conflict budget exhausted")
		os.Exit(2)
	}
}
