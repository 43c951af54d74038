package core

// Parallel per-output learning — a LIBRARY EXTENSION. The 2019 contest
// forbade multithreading, so the default path (Options.Parallel <= 1) is
// strictly sequential and paper-faithful. With Parallel = N > 1, the
// non-template outputs are learned concurrently by N workers, each into its
// own scratch circuit that is stitched into the final netlist afterwards.
//
// Requirements: the oracle must be safe for concurrent Eval calls (the
// circuit-backed and function-backed oracles are; the TCP client is not).
// Results are deterministic for a fixed (Seed, Parallel) pair but differ
// from the sequential path's stream: each output draws from its own seeded
// generator.

import (
	"sync"
	"time"

	"logicregression/internal/circuit"
	"logicregression/internal/names"
	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
)

// outputJob is one output to learn.
type outputJob struct {
	po   int
	name string
}

// outputResult carries a learned output back to the assembler.
type outputResult struct {
	po      int
	scratch *circuit.Circuit // single-PO circuit over the golden PIs
	rep     OutputReport
	sup     []int
	// failure records a permanent black-box death during this output's
	// learn. A panic must not escape the worker goroutine (it would kill
	// the process, not the learn), so it is carried back as a value and
	// the assembler degrades the result.
	failure error
}

// learnOutputsParallel learns the given outputs with opts.Parallel workers
// and returns per-output results indexed by PO.
func learnOutputsParallel(counter *oracle.Counter, jobs []outputJob, inG names.Grouping,
	opts Options, deadline time.Time) map[int]outputResult {

	workers := opts.Parallel
	if workers > len(jobs) {
		workers = len(jobs)
	}
	// Both channels are buffered to the fan-out: the feed loop below never
	// blocks, so even if every worker died early the producer (and the
	// learn) would still complete.
	in := make(chan outputJob, len(jobs))
	out := make(chan outputResult, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One generator per worker, re-seeded for each output: the
			// draws are deterministic regardless of scheduling order.
			var src sampling.Source
			for job := range in {
				src.Seed(opts.Seed + 0x9E3779B9*int64(job.po+1))
				scratch := circuit.New()
				piSigs := make([]circuit.Signal, counter.NumInputs())
				for i, name := range counter.InputNames() {
					piSigs[i] = scratch.AddPI(name)
				}
				var sig circuit.Signal
				var rep OutputReport
				var sup []int
				if f := catchFailure(func() {
					sig, rep, sup = learnOutput(scratch, counter, job.po, piSigs, inG, opts, deadline, &src)
				}); f != nil {
					out <- outputResult{po: job.po, failure: f}
					continue
				}
				rep.Name = job.name
				scratch.AddPO(job.name, sig)
				out <- outputResult{po: job.po, scratch: scratch, rep: rep, sup: sup}
			}
		}()
	}
	for _, job := range jobs {
		in <- job
	}
	close(in)
	wg.Wait()
	close(out)

	results := make(map[int]outputResult, len(jobs))
	for r := range out {
		results[r.po] = r
	}
	return results
}
