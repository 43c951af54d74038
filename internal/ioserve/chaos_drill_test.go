package ioserve

// Chaos soak and fault drills: every injected fault class must be absorbed
// (retried/reconnected, byte-identical circuit at a fixed seed) or surfaced
// (degraded result, failed accuracy check) — never a panic, never a silently
// wrong answer.

import (
	"bytes"
	"os"
	"testing"
	"time"

	"logicregression/internal/cases"
	"logicregression/internal/chaos"
	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/eval"
	"logicregression/internal/oracle"
)

// drillOpts keeps a full learn cheap enough to run many times per test
// while still exercising support identification, trees, and refinement.
func drillOpts() core.Options {
	return core.Options{
		Seed:           7,
		SupportR:       128,
		MaxTreeNodes:   200,
		MemoizeQueries: true,
	}
}

func netlistBytes(t *testing.T, c *circuit.Circuit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := circuit.WriteNetlist(&buf, c); err != nil {
		t.Fatalf("WriteNetlist: %v", err)
	}
	return buf.Bytes()
}

// learnRemote learns cs across a faulty wire: oracle-level faults via ocfg,
// transport-level faults via ccfg. The memo above the resilient client is
// the reconnect-resume substrate, exactly as cmd/logicreg stacks it.
func learnRemote(t *testing.T, o oracle.Oracle, ocfg chaos.Config, ccfg chaos.ConnConfig,
	dial DialConfig, opts core.Options) (*core.Result, *ResilientClient) {
	t.Helper()
	if ocfg != (chaos.Config{Seed: ocfg.Seed}) {
		o = chaos.Wrap(o, ocfg)
	}
	addr := startChaosServer(t, o, ccfg)
	cl, err := DialResilient(addr, dial, fastRetry())
	if err != nil {
		t.Fatalf("DialResilient: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return core.Learn(oracle.NewMemo(cl), opts), cl
}

// TestChaosSoakByteIdentical learns five built-in cases across a transport
// that both drops connections and injects transient error replies, and
// requires the learned circuit to be byte-identical to a fault-free local
// learn at the same seed. This is the resume invariant end to end: retries
// live below the oracle interface and the memo replays answered patterns, so
// the learner's query and RNG streams never see the faults.
func TestChaosSoakByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: ten full learns")
	}
	// Five cases by default; CHAOS_SOAK_ALL=1 widens the sweep to all 20
	// built-in cases (the full acceptance drill, run by the CI chaos job).
	names := []string{"case_1", "case_2", "case_3", "case_4", "case_5"}
	if os.Getenv("CHAOS_SOAK_ALL") != "" {
		names = cases.Names()
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cs, err := cases.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			want := netlistBytes(t, core.Learn(cs.Oracle(), drillOpts()).Circuit)

			res, cl := learnRemote(t, cs.Oracle(),
				chaos.Config{Seed: 9, ErrRate: 0.05},
				chaos.ConnConfig{DropAfter: 50},
				fastDial(), drillOpts())
			if res.Degraded {
				t.Fatalf("soak learn degraded: %s", res.DegradedReason)
			}
			if got := netlistBytes(t, res.Circuit); !bytes.Equal(got, want) {
				t.Errorf("circuit across faulty wire differs from fault-free learn")
			}
			if cl.Retries() == 0 {
				t.Errorf("soak injected no faults (retries=0) — thresholds too lax")
			}
		})
	}
}

// TestFaultDrillAbsorbed runs one learn per absorbable fault class and
// requires a byte-identical circuit every time. The hang class needs a tight
// I/O deadline: recovery from a silent server is exactly what the deadline
// exists for.
func TestFaultDrillAbsorbed(t *testing.T) {
	if testing.Short() {
		t.Skip("drill: several full learns")
	}
	cs, err := cases.ByName("case_3")
	if err != nil {
		t.Fatal(err)
	}
	want := netlistBytes(t, core.Learn(cs.Oracle(), drillOpts()).Circuit)

	drills := []struct {
		name string
		ocfg chaos.Config
		ccfg chaos.ConnConfig
		dial DialConfig
	}{
		{"transient-replies", chaos.Config{Seed: 5, ErrRate: 0.1}, chaos.ConnConfig{}, fastDial()},
		{"connection-drops", chaos.Config{}, chaos.ConnConfig{DropAfter: 40}, fastDial()},
		{"server-hangs", chaos.Config{}, chaos.ConnConfig{HangAfter: 40},
			DialConfig{ConnectTimeout: 2 * time.Second, IOTimeout: 150 * time.Millisecond}},
		{"truncated-replies", chaos.Config{}, chaos.ConnConfig{TruncateAfter: 40}, fastDial()},
		{"corrupted-replies", chaos.Config{}, chaos.ConnConfig{CorruptAfter: 40}, fastDial()},
	}
	for _, d := range drills {
		t.Run(d.name, func(t *testing.T) {
			res, cl := learnRemote(t, cs.Oracle(), d.ocfg, d.ccfg, d.dial, drillOpts())
			if res.Degraded {
				t.Fatalf("absorbable fault degraded the learn: %s", res.DegradedReason)
			}
			if got := netlistBytes(t, res.Circuit); !bytes.Equal(got, want) {
				t.Errorf("circuit under %s faults differs from fault-free learn", d.name)
			}
			if cl.Retries() == 0 {
				t.Errorf("drill %s injected no faults — it tested nothing", d.name)
			}
		})
	}
}

// TestFaultDrillPermanentDeathDegrades kills the black box a few queries in.
// The learn must return best-so-far with the degraded flag — not panic, not
// hang, not pretend success.
func TestFaultDrillPermanentDeathDegrades(t *testing.T) {
	cs, err := cases.ByName("case_3")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := learnRemote(t, cs.Oracle(),
		chaos.Config{FailAfter: 5}, chaos.ConnConfig{},
		fastDial(), drillOpts())
	if !res.Degraded {
		t.Fatal("learn against a dead black box did not report Degraded")
	}
	if res.DegradedReason == "" {
		t.Fatal("degraded result carries no reason")
	}
	if res.Circuit == nil || res.Circuit.NumPO() != cs.Oracle().NumOutputs() {
		t.Fatal("degraded result is not a complete best-so-far circuit")
	}
	netlistBytes(t, res.Circuit) // must still serialize
}

// TestFaultDrillFlippedBitsAreCaught exercises the one fault class no
// transport can absorb: silently flipped answers. The learn completes
// normally — and the final accuracy check against the clean black box must
// expose the damage. A flip drill where the check still reads 100% would
// mean wrong answers can slip through the pipeline unnoticed.
func TestFaultDrillFlippedBitsAreCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("drill: full learn")
	}
	cs, err := cases.ByName("case_3")
	if err != nil {
		t.Fatal(err)
	}
	// No byte comparison here, so the budget can be tighter than
	// drillOpts(): flipped answers make the trees refuse to converge, which
	// is the point but also what makes this learn slow.
	opts := drillOpts()
	opts.SupportR = 64
	opts.MaxTreeNodes = 60
	res, _ := learnRemote(t, cs.Oracle(),
		chaos.Config{Seed: 11, FlipRate: 0.05}, chaos.ConnConfig{},
		fastDial(), opts)
	if res.Degraded {
		t.Fatalf("flip faults must not degrade (they are silent): %s", res.DegradedReason)
	}
	rep := eval.Measure(cs.Oracle(), oracle.FromCircuit(res.Circuit),
		eval.Config{Patterns: 4000, Seed: 13})
	if rep.Accuracy >= 1 {
		t.Fatalf("accuracy check read %.4f against the clean box; flipped answers went undetected", rep.Accuracy)
	}
}
