package analysis

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// Main is the entry point of the repolint binary: it loads the packages
// named on the command line (default ./...), runs the analyzers over them,
// prints the findings, and exits 2 when there are any, 1 on a load or
// analysis error, and 0 on a clean run.
func Main(analyzers ...*Analyzer) {
	os.Exit(run(os.Args[1:], analyzers, os.Stdout, os.Stderr))
}

func run(args []string, analyzers []*Analyzer, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text",
		"diagnostic output format: text or sarif")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(stderr, "repolint: unknown -format %q (want text or sarif)\n", *format)
		return 1
	}

	prog, err := Load(".", fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	diags, err := prog.Run(analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *format == "sarif" {
		if err := WriteSARIF(stdout, analyzers, diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
