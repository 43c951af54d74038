package oracle_test

// Benchmark of the batched query engine against the scalar reference, on a
// real contest case. Running it also records the measurements:
//
//	go test -run '^$' -bench BenchmarkOracleBatch ./internal/oracle
//
// writes BENCH_oracle.json at the repository root with patterns/sec for the
// scalar and batch paths and for one-output EvalOutput calls, each with its
// speedup over the scalar path.

import (
	"encoding/json"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"logicregression/internal/bitvec"
	"logicregression/internal/cases"
	"logicregression/internal/oracle"
)

const (
	benchCase     = "case_5" // 87 inputs, 16 outputs
	benchPatterns = 4096
	benchOut      = "../../BENCH_oracle.json"
)

type benchRow struct {
	Mode            string  `json:"mode"`
	NsPerBatch      float64 `json:"ns_per_4096_patterns"`
	PatternsPerSec  float64 `json:"patterns_per_sec"`
	SpeedupVsScalar float64 `json:"speedup_vs_scalar"`
}

var benchOnce sync.Once

// BenchmarkOracleBatch times one 4096-pattern EvalBatch on a circuit oracle.
// The first run also benchmarks the scalar path and a one-output EvalOutput
// (the mean over every output in turn) on the same workload and writes the
// three rows to BENCH_oracle.json.
func BenchmarkOracleBatch(b *testing.B) {
	cs, err := cases.ByName(benchCase)
	if err != nil {
		b.Fatal(err)
	}
	o := cs.Oracle()
	lanes := randomLanes(rand.New(rand.NewSource(1)), o.NumInputs(), benchPatterns)

	benchOnce.Do(func() { writeBenchJSON(b, o, lanes) })

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.EvalBatch(o, lanes, benchPatterns)
	}
	b.ReportMetric(float64(benchPatterns), "patterns/op")
}

func writeBenchJSON(b *testing.B, o oracle.Oracle, lanes []uint64) {
	modes := []struct {
		name  string
		calls int // oracle calls per fn
		fn    func()
	}{
		{"scalar", 1, func() {
			// One Eval per pattern: the pre-batching reference cost.
			scalarReference(oracle.ScalarOnly(o), lanes, benchPatterns)
		}},
		{"batch", 1, func() {
			// The full batch path with amortized simulation scratch.
			oracle.EvalBatch(o, lanes, benchPatterns)
		}},
		{"output", o.NumOutputs(), func() {
			// Each output from its own cone, as the learner asks.
			for po := 0; po < o.NumOutputs(); po++ {
				oracle.EvalOutput(o, lanes, benchPatterns, po)
			}
		}},
	}
	rows := make([]benchRow, len(modes))
	for i, m := range modes {
		ns := timeMode(m.fn) / float64(m.calls)
		rows[i] = benchRow{
			Mode:           m.name,
			NsPerBatch:     ns,
			PatternsPerSec: benchPatterns / (ns / 1e9),
		}
	}
	for i := range rows {
		rows[i].SpeedupVsScalar = rows[0].NsPerBatch / rows[i].NsPerBatch
	}
	data, err := json.MarshalIndent(map[string]any{
		"case":     benchCase,
		"patterns": benchPatterns,
		"results":  rows,
	}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(benchOut, append(data, '\n'), 0o644); err != nil {
		b.Logf("skipping %s: %v", benchOut, err)
	}
}

// timeMode times fn by doubling the iteration count until the wall clock per
// measurement exceeds 200ms, then returns ns per call. (testing.Benchmark
// cannot be nested inside a running benchmark — it deadlocks on the testing
// package's benchmark lock — so this times the comparison modes by hand.)
func timeMode(fn func()) float64 {
	fn() // warm-up
	for n := 1; ; n *= 2 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(start); d >= 200*time.Millisecond {
			return float64(d.Nanoseconds()) / float64(n)
		}
	}
}

// sweepBatches returns a generator of n-pattern batches over nIn inputs in
// the shape of a remote learn's sampling sweeps: each draws fresh random
// patterns, except that about 5% of them repeat the pattern at the same
// position in the batch before.
func sweepBatches(rng *rand.Rand, nIn, n int) func() []bitvec.Word {
	w := oracle.Words(n)
	prev := randomLanes(rng, nIn, n)
	return func() []bitvec.Word {
		cur := randomLanes(rng, nIn, n)
		for j := 0; j < w; j++ {
			var repeat bitvec.Word // the ~5% of patterns copied from prev
			for k := 0; k < 64; k++ {
				if rng.Intn(20) == 0 {
					repeat |= 1 << uint(k)
				}
			}
			for i := 0; i < nIn; i++ {
				cur[i*w+j] = cur[i*w+j]&^repeat | prev[i*w+j]&repeat
			}
		}
		prev = cur
		return cur
	}
}

// memoBenchOracle is case_10's oracle (37 inputs, one key word).
func memoBenchOracle(b *testing.B) oracle.Oracle {
	cs, err := cases.ByName("case_10")
	if err != nil {
		b.Fatal(err)
	}
	return cs.Oracle()
}

// BenchmarkMemoBatch times one 16 384-pattern EvalBatch through a
// default-capacity memo over case_10, the shape of a remote learn's
// sampling sweeps. The cache is full, so every miss evicts.
func BenchmarkMemoBatch(b *testing.B) {
	o := memoBenchOracle(b)
	const n = 1 << 14
	next := sweepBatches(rand.New(rand.NewSource(1)), o.NumInputs(), n)
	m := oracle.NewMemo(o)
	for m.Len() < oracle.DefaultMemoCapacity {
		m.EvalBatch(next(), n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lanes := next()
		b.StartTimer()
		m.EvalBatch(lanes, n)
	}
	b.ReportMetric(float64(n), "patterns/op")
}

// BenchmarkMemoFill times what a learn with MemoizeQueries pays its memo:
// one op feeds 32 sweep-sized batches (BenchmarkMemoBatch's) to a fresh
// default-capacity memo over case_10, about the probes of one remote learn.
// The shards fill from empty, their segments and index growth included,
// and the last half of the batches evict.
func BenchmarkMemoFill(b *testing.B) {
	o, feed := memoFillFeed(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillMemo(o, feed)
	}
	b.ReportMetric(float64(memoFillBatch*len(feed)), "patterns/op")
}

// memoFillBatch is the size of BenchmarkMemoFill's batches.
const memoFillBatch = 1 << 14

// memoFillFeed returns BenchmarkMemoFill's oracle and its 32 batches.
func memoFillFeed(b *testing.B) (oracle.Oracle, [][]bitvec.Word) {
	o := memoBenchOracle(b)
	next := sweepBatches(rand.New(rand.NewSource(1)), o.NumInputs(), memoFillBatch)
	feed := make([][]bitvec.Word, 32)
	for i := range feed {
		feed[i] = next()
	}
	return o, feed
}

// fillMemo feeds the batches to a fresh default-capacity memo over o.
func fillMemo(o oracle.Oracle, feed [][]bitvec.Word) *oracle.Memo {
	m := oracle.NewMemo(o)
	for _, lanes := range feed {
		m.EvalBatch(lanes, memoFillBatch)
	}
	return m
}

// TestMemoFillAllocatesItsSize bounds what BenchmarkMemoFill's op
// allocates: filling a default-capacity memo past its bound may allocate
// at most 1.5 times the memo's final size, the key and response words and
// LRU links of every entry and each shard's index at twice its slots. The
// index doubles as it grows, which alone allocates about twice its final
// size, so the slots must be allocated about once.
func TestMemoFillAllocatesItsSize(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race the pool drops EvalBatch's scratch at random")
	}
	var m *oracle.Memo
	var final int64
	res := testing.Benchmark(func(b *testing.B) {
		o, feed := memoFillFeed(b)
		slot := 8*(bitvec.RowWords(o.NumInputs())+bitvec.RowWords(o.NumOutputs())) + 8
		final = int64(oracle.DefaultMemoCapacity) * int64(slot+2*8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m = fillMemo(o, feed)
		}
	})
	if res.N == 0 {
		t.Fatal("the fill did not run")
	}
	if st := m.Stats(); st.Entries != oracle.DefaultMemoCapacity || st.Evictions == 0 {
		t.Fatalf("the feed left %d entries after %d evictions, want a full memo of %d that evicted", st.Entries, st.Evictions, oracle.DefaultMemoCapacity)
	}
	if got := res.AllocedBytesPerOp(); got > final*3/2 {
		t.Fatalf("filling the memo allocated %d bytes, want at most 1.5 times its final %d", got, final)
	}
}

// TestSmallMemoStaysSmall bounds what a default-capacity memo holding 100
// entries allocates, as serve's per-job and per-session memos do: under
// 64 KiB, the memo and its one batch included.
func TestSmallMemoStaysSmall(t *testing.T) {
	const n = 100
	var m *oracle.Memo
	res := testing.Benchmark(func(b *testing.B) {
		o := memoBenchOracle(b)
		lanes := randomLanes(rand.New(rand.NewSource(2)), o.NumInputs(), n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m = oracle.NewMemo(o)
			m.EvalBatch(lanes, n)
		}
	})
	if res.N == 0 {
		t.Fatal("the batch did not run")
	}
	if m.Len() != n {
		t.Fatalf("the memo holds %d entries, want %d", m.Len(), n)
	}
	if got := res.AllocedBytesPerOp(); got >= 64<<10 {
		t.Fatalf("a memo of %d entries allocated %d bytes, want under 64 KiB", n, got)
	}
}
