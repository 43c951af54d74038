// Command logicreg learns a circuit for a black-box function.
//
// The black box is either one of the built-in synthetic contest cases
// (-case case_7) or a golden netlist file treated as a black box
// (-netlist design.net). The learned circuit is written as a text netlist
// to -out (default stdout) together with a learning report on stderr.
//
// Usage:
//
//	logicreg -case case_16 -out learned.net
//	logicreg -netlist golden.net -seed 7 -time 60s -out learned.net
//	logicreg -remote 127.0.0.1:9000 -oracle-timeout 10s -oracle-retries 12
//	logicreg -case case_11 -cpuprofile learn.prof -out learned.net
//	logicreg -case case_11 -memprofile alloc.prof -out learned.net
//
// -cpuprofile writes a runtime/pprof CPU profile of the whole run, and
// -memprofile the allocs profile (every allocation sampled since the start,
// at the default rate) once the learn returns, for `go tool pprof`;
// profiling never changes the learned netlist.
//
// Remote sessions send every multi-pattern query as batch frames and are
// fault tolerant: transport hiccups are retried with reconnection
// (-oracle-retries, -oracle-backoff), every query carries an I/O deadline
// (-oracle-timeout), and answered patterns are memoized so a reconnect
// resumes instead of re-querying. With -memo, -remote or -store, the
// report's "memo:" line after the learn gives the cache's hits, misses,
// hit rate, evictions and entries. If the black box dies
// permanently mid-learn the run degrades: the best-so-far circuit is still
// written and the report says DEGRADED instead of the process panicking.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"logicregression/internal/cases"
	"logicregression/internal/check"
	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/eval"
	"logicregression/internal/ioserve"
	"logicregression/internal/oracle"
	"logicregression/internal/store"
)

func main() {
	var (
		caseName  = flag.String("case", "", "built-in case name (case_1..case_20)")
		netlist   = flag.String("netlist", "", "golden netlist file to treat as the black box")
		remote    = flag.String("remote", "", "address of a remote iogen black box (host:port)")
		oTimeout  = flag.Duration("oracle-timeout", 30e9, "remote per-query I/O deadline and connect timeout")
		oRetries  = flag.Int("oracle-retries", 8, "remote attempts per query before giving up (degraded run)")
		oBackoff  = flag.Duration("oracle-backoff", 50e6, "initial retry backoff, doubled per attempt (capped at 2s)")
		memo      = flag.Bool("memo", false, "memoize black-box responses (always on with -remote: the cache is the reconnect-resume substrate)")
		outPath   = flag.String("out", "", "output netlist path (default stdout)")
		seed      = flag.Int64("seed", 1, "random seed")
		timeLimit = flag.Duration("time", 0, "learning time limit (0 = none)")
		supportR  = flag.Int("support-r", 0, "support-identification samples per input (default 2048; paper 7200)")
		treeR     = flag.Int("tree-r", 0, "per-node samples in the decision tree (default 60)")
		maxNodes  = flag.Int("max-tree-nodes", 0, "node budget per output tree (0 = unlimited)")
		noPre     = flag.Bool("no-preprocess", false, "disable name grouping + template matching")
		noOpt     = flag.Bool("no-opt", false, "disable circuit optimization")
		hidden    = flag.Bool("hidden-compression", false, "hunt for hidden comparators and compress inputs")
		selfCheck = flag.Int("self-check", 0, "after learning, measure accuracy with this many patterns")
		record    = flag.String("record", "", "record every black-box query to this transcript file")
		storeDir  = flag.String("store", "", "persistent store directory: warm-start the memo from the log, persist every answered query, and reuse a previously learned circuit when this oracle/seed/options was already solved")
		storeImp  = flag.String("store-import", "", "import a recorded transcript (-record format) into the store's memo log before learning (requires -store)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (runtime/pprof format)")
		memProf   = flag.String("memprofile", "", "write an allocation profile of the learn to this file (runtime/pprof format)")
	)
	flag.Parse()
	if *storeImp != "" && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "logicreg: -store-import requires -store")
		os.Exit(1)
	}
	if *cpuProf != "" {
		stop, err := startCPUProfile(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "logicreg:", err)
			os.Exit(1)
		}
		defer stop()
	}
	writeMemProfile := func() {}
	if *memProf != "" {
		write, err := createMemProfile(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "logicreg:", err)
			os.Exit(1)
		}
		writeMemProfile = write
	}

	o, closer, err := loadOracle(*caseName, *netlist, *remote, ioserve.DialConfig{
		ConnectTimeout: *oTimeout,
		IOTimeout:      *oTimeout,
	}, ioserve.RetryConfig{
		MaxAttempts: *oRetries,
		Backoff:     *oBackoff,
		Seed:        *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "logicreg:", err)
		os.Exit(1)
	}
	if closer != nil {
		defer closer()
	}
	// Memoization before validation: the validation probes land in the same
	// cache the learner reads, so no black-box query is ever paid twice.
	// For remote sessions the memo doubles as the reconnect-resume
	// substrate, so it is not optional there; with -store it is the
	// write-through persistence point, so it is not optional there either.
	memoize := *memo || *remote != "" || *storeDir != ""
	var m *oracle.Memo
	if memoize {
		m = oracle.NewMemo(o)
		o = m
	}

	// The persistent store is strictly additive: preloaded answers came
	// from the same deterministic black box, so the learn stays
	// byte-identical; a failing disk degrades to memory-only. Open errors
	// therefore warn instead of aborting a learn that works without disk.
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Config{Dir: *storeDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "logicreg: store disabled:", err)
		} else {
			defer func() {
				stats := st.Stats()
				fmt.Fprintf(os.Stderr, "store: %d memo entries (%d bytes), %d circuits, %d writes this run",
					stats.MemoEntries, stats.MemoLogBytes, stats.Circuits, stats.HookWrites)
				if stats.Degraded {
					fmt.Fprintf(os.Stderr, " — DEGRADED to memory-only (%v)", st.Err())
				}
				fmt.Fprintln(os.Stderr)
				m.SetHook(nil)
				st.Close()
			}()
			if info := st.Recovery(); info.Corrupt {
				fmt.Fprintln(os.Stderr, "logicreg: store recovered with corruption:", info.CorruptDetail)
			} else if info.TruncatedBytes > 0 {
				fmt.Fprintf(os.Stderr, "logicreg: store repaired a %d-byte torn tail from a previous crash\n", info.TruncatedBytes)
			}
			if *storeImp != "" {
				f, err := os.Open(*storeImp)
				if err != nil {
					fmt.Fprintln(os.Stderr, "logicreg:", err)
					os.Exit(1)
				}
				n, err := st.ImportTranscript(f, oracle.IdentityOf(o))
				f.Close()
				if err != nil {
					fmt.Fprintln(os.Stderr, "logicreg: transcript import:", err)
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "store: imported %d transcript entries\n", n)
			}
			preloaded := st.AttachMemo(m)
			if preloaded > 0 {
				fmt.Fprintf(os.Stderr, "store: warm-started memo with %d persisted answers\n", preloaded)
			}
		}
	}
	// One probe query up front: a remote generator with mismatched arity
	// or a broken frame encoding should fail here, not hours into the run.
	if err := validate(o); err != nil {
		fmt.Fprintln(os.Stderr, "logicreg: oracle failed validation:", err)
		os.Exit(1)
	}
	// finishRecording closes the transcript and exits 1 if any of it was
	// lost: the recorder keeps its first write error, and a full disk can
	// also surface only at Close.
	finishRecording := func() {}
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "logicreg:", err)
			os.Exit(1)
		}
		rec, err := oracle.NewRecorder(o, f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "logicreg:", err)
			os.Exit(1)
		}
		o = rec
		finishRecording = func() {
			err := rec.Err()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "logicreg: transcript", *record+":", err)
				os.Exit(1)
			}
		}
	}

	opts := core.Options{
		Seed:                 *seed,
		TimeLimit:            *timeLimit,
		SupportR:             *supportR,
		TreeR:                *treeR,
		MaxTreeNodes:         *maxNodes,
		DisablePreprocessing: *noPre,
		DisableOptimization:  *noOpt,
		HiddenCompression:    *hidden,
		MemoizeQueries:       memoize,
	}

	// Warm start: a circuit already stored under this exact learn key
	// (oracle identity + seed + result-determining options) is what this
	// run would re-learn byte for byte — load it instead of paying for the
	// learn again. Corrupt blobs are reported and fall through to a fresh
	// learn; they can never be served as an answer.
	var learnKey store.LearnKey
	if st != nil {
		learnKey = store.LearnKey{Identity: oracle.IdentityOf(o), Seed: *seed, Options: store.OptionsSig(opts)}
		switch c, err := st.GetCircuit(learnKey); {
		case err != nil:
			fmt.Fprintln(os.Stderr, "logicreg: stored circuit unusable, relearning:", err)
		case c != nil:
			fmt.Fprintf(os.Stderr, "store: warm start — reusing stored circuit (%d gates) for this oracle/seed/options\n", c.Size())
			writeMemProfile()
			finishRecording()
			writeNetlist(*outPath, c)
			return
		}
	}

	res := core.Learn(o, opts)
	writeMemProfile()

	fmt.Fprintf(os.Stderr, "learned: %s\n", res)
	for _, or := range res.Outputs {
		fmt.Fprintf(os.Stderr, "  %-24s %-20s support=%-3d cubes=%-5d negated=%-5v truncated=%v\n",
			or.Name, or.Method, or.Support, or.Cubes, or.Negated, or.Truncated)
	}
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "logicreg: black box died mid-learn (%s); writing best-so-far circuit\n",
			res.DegradedReason)
	}
	if m != nil {
		ms := m.Stats()
		fmt.Fprintf(os.Stderr, "memo: %d hits, %d misses (%.1f%% hit rate), %d evictions, %d entries\n",
			ms.Hits, ms.Misses, 100*ms.HitRate(), ms.Evictions, ms.Entries)
	}
	// Only a whole learn is the learn key's true answer: a degraded or
	// time-limited one is never cached as one.
	if st != nil && store.Storable(opts, res) {
		if err := st.PutCircuit(learnKey, res.Circuit); err != nil {
			fmt.Fprintln(os.Stderr, "logicreg: could not store learned circuit:", err)
		}
	}

	if *selfCheck > 0 {
		if res.Degraded {
			fmt.Fprintln(os.Stderr, "logicreg: skipping self-check: the black box is unavailable")
		} else if rep, err := measure(o, res, eval.Config{Patterns: *selfCheck, Seed: *seed + 1}); err != nil {
			fmt.Fprintln(os.Stderr, "logicreg: self-check aborted:", err)
		} else {
			fmt.Fprintf(os.Stderr, "self-check: %s\n", rep)
		}
	}

	finishRecording()
	writeNetlist(*outPath, res.Circuit)
}

// writeNetlist writes the learned circuit to path (stdout when empty),
// exiting with status 1 on any I/O error.
func writeNetlist(path string, c *circuit.Circuit) {
	var err error
	if path == "" {
		err = circuit.WriteNetlist(os.Stdout, c)
	} else {
		var f *os.File
		if f, err = os.Create(path); err == nil {
			err = circuit.WriteNetlist(f, c)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "logicreg:", err)
		os.Exit(1)
	}
}

// startCPUProfile starts a CPU profile written to path; stop ends it and
// closes the file.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "logicreg: cpuprofile:", err)
		}
	}, nil
}

// createMemProfile creates path for an allocs profile; write, called once
// the learn returns, runs a GC so the profile counts every allocation made
// so far, writes the profile and closes the file.
func createMemProfile(path string) (write func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return func() {
		runtime.GC()
		err := pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "logicreg: memprofile:", err)
		}
	}, nil
}

// validate runs oracle.Validate with transport failures as errors instead
// of panics: a dead remote at startup is an exit-1 message, not a crash.
func validate(o oracle.Oracle) (err error) {
	defer oracle.CatchFailure(&err)
	return oracle.Validate(o)
}

// measure runs the self-check, catching a black box that dies during it.
func measure(o oracle.Oracle, res *core.Result, cfg eval.Config) (rep eval.Report, err error) {
	defer oracle.CatchFailure(&err)
	return eval.Measure(o, oracle.FromCircuit(res.Circuit), cfg), nil
}

func loadOracle(caseName, netlist, remote string,
	dial ioserve.DialConfig, retry ioserve.RetryConfig) (oracle.Oracle, func(), error) {
	set := 0
	for _, s := range []string{caseName, netlist, remote} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, nil, fmt.Errorf("exactly one of -case, -netlist, -remote is required")
	}
	switch {
	case caseName != "":
		c, err := cases.ByName(caseName)
		if err != nil {
			return nil, nil, err
		}
		return c.Oracle(), nil, nil
	case netlist != "":
		c, err := check.ReadCircuitFile(netlist)
		if err != nil {
			return nil, nil, err
		}
		return oracle.FromCircuit(c), nil, nil
	default:
		cl, err := ioserve.DialResilient(remote, dial, retry)
		if err != nil {
			return nil, nil, err
		}
		return cl, func() { cl.Close() }, nil
	}
}
