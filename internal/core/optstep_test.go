package core

import (
	"bytes"
	"testing"
	"time"

	"logicregression/internal/cases"
	"logicregression/internal/circuit"
	"logicregression/internal/opt"
)

// e1Options is the budget of EXPERIMENTS E1 at seed 1.
func e1Options() Options {
	return Options{Seed: 1, SupportR: 768, MaxTreeNodes: 600}
}

func learnCase(t *testing.T, name string, opts Options) *Result {
	t.Helper()
	cs, err := cases.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return Learn(cs.Oracle(), opts)
}

func netlistBytes(t *testing.T, c *circuit.Circuit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := circuit.WriteNetlist(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOptSkippedOncePastTheDeadline(t *testing.T) {
	// case_16's four template outputs learn without reading the deadline,
	// and opt takes the circuit from 112 to 66 gates when it runs. With a
	// deadline long past by the time opt would start, opt must not run.
	opts := e1Options()
	if res := learnCase(t, "case_16", opts); res.Size >= res.SizeBeforeOpt {
		t.Fatalf("without a limit opt kept %d of %d gates; the case no longer shows a skipped opt", res.Size, res.SizeBeforeOpt)
	}
	opts.TimeLimit = time.Nanosecond
	res := learnCase(t, "case_16", opts)
	if res.Size != res.SizeBeforeOpt {
		t.Fatalf("TimeLimit %v: opt ran after the deadline (%d -> %d gates)", opts.TimeLimit, res.SizeBeforeOpt, res.Size)
	}
}

func TestLearnScriptLosesNothing(t *testing.T) {
	// opt.Optimize leaves refactor and collapse out of DefaultScript,
	// because on learned covers they never win. Check it on one case of
	// each learning method: the whole script must give the same bytes.
	for _, name := range []string{"case_4", "case_8", "case_12", "case_18"} {
		t.Run(name, func(t *testing.T) {
			opts := e1Options()
			opts.DisableOptimization = true
			pre := learnCase(t, name, opts).Circuit
			cfg := opt.Config{Seed: opts.Seed + 1}
			full, err := opt.RunScript(pre, opt.DefaultScript, cfg)
			if err != nil {
				t.Fatal(err)
			}
			learned := opt.Optimize(pre, cfg)
			if !bytes.Equal(netlistBytes(t, learned), netlistBytes(t, full)) {
				t.Fatalf("Optimize gives %d gates, DefaultScript %d: the learn script loses a gain", learned.Size(), full.Size())
			}
		})
	}
}
