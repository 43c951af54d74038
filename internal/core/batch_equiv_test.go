package core

import (
	"bytes"
	"reflect"
	"testing"

	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
)

// TestLearnByteIdenticalWithBatching is the end-to-end equivalence guarantee
// of the batched query subsystem: at a fixed seed, learning against the
// batch-capable oracle and against the same oracle restricted to scalar Eval
// (oracle.ScalarOnly) must produce byte-identical netlists and identical
// per-output reports, query counts, and gate counts. Batching is an
// amortization, never a semantic change.
func TestLearnByteIdenticalWithBatching(t *testing.T) {
	g := circuit.New()
	var in []circuit.Signal
	for i := 0; i < 10; i++ {
		in = append(in, g.AddPI("pin"+string(rune('a'+i))))
	}
	g.AddPO("f", g.Or(g.And(in[0], in[3]), g.And(in[5], g.NotGate(in[7]))))
	g.AddPO("g", g.Xor(in[2], g.And(in[4], in[6])))
	g.AddPO("h", g.Or(g.Xor(in[1], in[8]), g.And(in[9], in[0])))

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{Seed: 1}},
		{"tree-path", Options{Seed: 2, ExhaustiveThreshold: 1, DisablePreprocessing: true}},
		{"memoized", Options{Seed: 3, MemoizeQueries: true}},
		{"refined", Options{Seed: 4, RefineRounds: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := oracle.FromCircuit(g)
			fast := Learn(o, tc.opts)
			slow := Learn(oracle.ScalarOnly(o), tc.opts)

			var fastNet, slowNet bytes.Buffer
			if err := circuit.WriteNetlist(&fastNet, fast.Circuit); err != nil {
				t.Fatal(err)
			}
			if err := circuit.WriteNetlist(&slowNet, slow.Circuit); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fastNet.Bytes(), slowNet.Bytes()) {
				t.Fatalf("netlists differ with batching on vs off:\n--- batch ---\n%s\n--- scalar ---\n%s",
					fastNet.String(), slowNet.String())
			}
			if fast.Size != slow.Size || fast.SizeBeforeOpt != slow.SizeBeforeOpt {
				t.Fatalf("gate counts differ: batch %d/%d, scalar %d/%d",
					fast.SizeBeforeOpt, fast.Size, slow.SizeBeforeOpt, slow.Size)
			}
			if fast.Queries != slow.Queries {
				t.Fatalf("query counts differ: batch %d, scalar %d", fast.Queries, slow.Queries)
			}
			if !reflect.DeepEqual(fast.Outputs, slow.Outputs) {
				t.Fatalf("output reports differ:\nbatch  %+v\nscalar %+v", fast.Outputs, slow.Outputs)
			}
		})
	}
}
