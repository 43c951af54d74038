package analysis

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Main is the entry point of the repolint binary: it loads the packages
// named on the command line (default ./...), runs the analyzers over them
// with the Driver, prints the findings, and exits 2 when there are any, 1
// on a load or analysis error, and 0 on a clean run.
func Main(analyzers ...*Analyzer) {
	os.Exit(run(os.Args[1:], analyzers))
}

// Version participates in every analysis-cache key; bump it when analyzer
// behaviour changes.
const Version = "repolint-8"

func run(args []string, analyzers []*Analyzer) int {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	format := fs.String("format", "text",
		"diagnostic output format: text or sarif")
	parallel := fs.Int("parallel", runtime.NumCPU(),
		"packages analyzed concurrently (1 = sequential; scheduling is topological either way)")
	cacheDir := fs.String("cache", os.Getenv("REPOLINT_CACHE"),
		"analysis cache directory; unchanged packages replay from it (default $REPOLINT_CACHE, empty = off)")
	stats := fs.Bool("stats", false,
		"print unit, cache-hit, and wall-clock stats to stderr")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "repolint: unknown -format %q (want text or sarif)\n", *format)
		return 1
	}

	start := time.Now()
	units, err := LoadPackages(".", fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	driver := &Driver{Analyzers: analyzers, Parallel: *parallel}
	if *cacheDir != "" {
		cache, err := OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		driver.Cache = cache
	}
	results, rstats, err := driver.Run(units)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	exit := 0
	var all []Diagnostic
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintln(os.Stderr, r.Err)
			exit = 1
			continue
		}
		all = append(all, r.Diags...)
	}
	if len(all) > 0 {
		exit = 2
	}
	if *format == "sarif" {
		if err := WriteSARIF(os.Stdout, analyzers, all); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		for _, d := range all {
			fmt.Println(d)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "repolint: %d units (%d cached, %d failed), %d analyzers, %.2fs wall\n",
			rstats.Units, rstats.Cached, rstats.Failed, len(analyzers), time.Since(start).Seconds())
	}
	return exit
}
