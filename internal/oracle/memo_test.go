package oracle

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"logicregression/internal/bitvec"
)

// countingOracle counts real evaluations of a 3-input xor-ish function.
type countingOracle struct {
	calls int
}

func (o *countingOracle) NumInputs() int        { return 3 }
func (o *countingOracle) NumOutputs() int       { return 1 }
func (o *countingOracle) InputNames() []string  { return []string{"a", "b", "c"} }
func (o *countingOracle) OutputNames() []string { return []string{"z"} }
func (o *countingOracle) Eval(a []bool) []bool {
	o.calls++
	return []bool{a[0] != a[1] || a[2]}
}

func assign3(m int) []bool {
	return []bool{m&1 == 1, m>>1&1 == 1, m>>2&1 == 1}
}

func TestMemoLRUEviction(t *testing.T) {
	inner := &countingOracle{}
	m := NewMemoCap(inner, 4)

	// Fill the cache: 4 distinct queries, all misses.
	for q := 0; q < 4; q++ {
		m.Eval(assign3(q))
	}
	if inner.calls != 4 || m.Len() != 4 {
		t.Fatalf("after fill: calls=%d len=%d", inner.calls, m.Len())
	}

	// Touch query 0 so query 1 becomes the LRU victim.
	m.Eval(assign3(0))
	if inner.calls != 4 {
		t.Fatalf("hit went to the inner oracle (calls=%d)", inner.calls)
	}

	// Insert two fresh queries: evicts 1 then 2 (LRU order), never 0.
	m.Eval(assign3(4))
	m.Eval(assign3(5))
	if m.Len() != 4 {
		t.Fatalf("capacity not enforced: len=%d", m.Len())
	}
	if m.Stats().Evictions != 2 {
		t.Fatalf("Evictions = %d, want 2", m.Stats().Evictions)
	}

	callsBefore := inner.calls
	m.Eval(assign3(0)) // still cached: recency protected it
	if inner.calls != callsBefore {
		t.Fatal("recently used entry was evicted")
	}
	m.Eval(assign3(1)) // evicted: must re-query
	if inner.calls != callsBefore+1 {
		t.Fatal("evicted entry still answered from cache")
	}
}

func TestMemoBatchDeduplicatesMisses(t *testing.T) {
	inner := &countingOracle{}
	m := NewMemoCap(inner, 64)

	// A 64-pattern batch over only 8 distinct assignments: the inner
	// oracle sees each distinct assignment exactly once.
	const n = 64
	w := Words(n)
	lanes := make([]bitvec.Word, 3*w)
	for k := 0; k < n; k++ {
		for i, bit := range assign3(k % 8) {
			if bit {
				setLaneBit(lanes, w, i, k)
			}
		}
	}
	out := m.EvalBatch(lanes, n)
	if inner.calls != 8 {
		t.Fatalf("inner calls = %d, want 8 (deduplicated misses)", inner.calls)
	}
	for k := 0; k < n; k++ {
		want := inner.evalPure(assign3(k % 8))
		if laneBit(out, w, 0, k) != want {
			t.Fatalf("batch result wrong at pattern %d", k)
		}
	}

	// A second identical batch is all hits.
	m.EvalBatch(lanes, n)
	if inner.calls != 8 {
		t.Fatalf("warm batch re-queried the inner oracle (calls=%d)", inner.calls)
	}
	if m.Stats().Hits == 0 {
		t.Fatal("no hits recorded")
	}
}

// evalPure computes the function without counting.
func (o *countingOracle) evalPure(a []bool) bool { return a[0] != a[1] || a[2] }

func TestMemoWordsGoThroughCache(t *testing.T) {
	inner := &countingOracle{}
	m := NewMemoCap(inner, 64)
	in := []uint64{0xAAAA, 0xCCCC, 0xF0F0}
	r1 := EvalWords(m, in)
	r2 := EvalWords(m, in)
	if r1[0] != r2[0] {
		t.Fatalf("EvalWords unstable: %x vs %x", r1[0], r2[0])
	}
	if inner.calls != 8 { // 3 inputs -> at most 8 distinct assignments
		t.Fatalf("inner calls = %d, want 8", inner.calls)
	}
	want := EvalWords(ScalarOnly(inner), in)
	if r1[0] != want[0] {
		t.Fatalf("EvalWords = %x, reference %x", r1[0], want[0])
	}
}

func TestMemoCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewMemoCap(&countingOracle{}, 0)
}

// TestMemoConcurrentStress hammers one shared Memo from many goroutines with
// overlapping keys, mixed scalar/word/batch queries, live stats reads, and a
// capacity small enough to force constant eviction. Run under -race this is
// the regression test for the sharded LRU's locking; functionally every
// answer must still match the inner oracle.
func TestMemoConcurrentStress(t *testing.T) {
	// The inner oracle must itself be race-free: Memo evaluates misses
	// outside the shard locks by design, so countingOracle's unguarded
	// counter would be a false positive here.
	inner := statelessOracle{}
	m := NewMemoCap(inner, 8) // tiny: every shard evicts continuously

	const workers = 8
	const rounds = 400
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				switch rng.Intn(4) {
				case 0:
					a := assign3(rng.Intn(8))
					want := inner.Eval(a)
					if got := m.Eval(a); got[0] != want[0] {
						errs <- fmt.Errorf("Eval(%v) = %v, want %v", a, got, want)
						return
					}
				case 1:
					in := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
					got := EvalWords(m, in)
					want := in[0] ^ in[1] | in[2]
					if got[0] != want {
						errs <- fmt.Errorf("EvalWords(%x) = %x, want %x", in, got[0], want)
						return
					}
				case 2:
					n := 1 + rng.Intn(130) // spans partial and multi-word batches
					lanes := make([]bitvec.Word, 3*Words(n))
					for i := range lanes {
						lanes[i] = bitvec.Word(rng.Uint64())
					}
					out := EvalBatch(m, lanes, n)
					words := Words(n)
					for k := 0; k < n; k++ {
						w, bit := k/64, uint(k%64)
						a := []bool{
							lanes[0*words+w]>>bit&1 == 1,
							lanes[1*words+w]>>bit&1 == 1,
							lanes[2*words+w]>>bit&1 == 1,
						}
						want := inner.Eval(a)[0]
						if got := out[w]>>bit&1 == 1; got != want {
							errs <- fmt.Errorf("EvalBatch pattern %d = %v, want %v", k, got, want)
							return
						}
					}
				default:
					// Stats and Len walk every shard; they must be safe
					// against concurrent mutation.
					_ = m.Stats()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m.Len() > 8 {
		t.Errorf("cache holds %d entries, capacity 8", m.Len())
	}
}

// TestMemoConcurrentStressSharded is the stress test on a 16-shard memo, so
// that batches hold shard locks in turn while other goroutines probe and
// fill the same shards. Workers mix batches of up to 5,000 patterns with
// Eval and Stats, and the hook sees every fresh insert once: each one is
// either still cached or was evicted.
func TestMemoConcurrentStressSharded(t *testing.T) {
	const nIn, nOut, capacity = 16, 3, 256
	f := (&logOracle{nIn: nIn, nOut: nOut}).f
	inner := &FuncOracle{Ins: make([]string, nIn), Outs: make([]string, nOut), F: f}
	m := NewMemoCap(inner, capacity)
	if len(m.shards) != memoShardCount {
		t.Fatalf("capacity %d built %d shards, want %d", capacity, len(m.shards), memoShardCount)
	}
	inserts := newRecordingHook()
	m.SetHook(inserts)

	const workers = 6
	const rounds = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// Ten free low bits under fixed high bits: 1,024 keys, four
			// times the capacity, so batches both hit and evict.
			pattern := func() uint64 { return uint64(rng.Intn(1024)) | 0x25<<10 }
			for r := 0; r < rounds; r++ {
				switch rng.Intn(4) {
				case 0, 1:
					n := 1 + rng.Intn(5000)
					w := Words(n)
					lanes := make([]bitvec.Word, nIn*w)
					for k := 0; k < n; k++ {
						x := pattern()
						for i := 0; i < nIn; i++ {
							if x>>uint(i)&1 == 1 {
								setLaneBit(lanes, w, i, k)
							}
						}
					}
					got, want := m.EvalBatch(lanes, n), EvalBatch(inner, lanes, n)
					for j := 0; j < nOut; j++ {
						for k := 0; k < n; k++ {
							if laneBit(got, w, j, k) != laneBit(want, w, j, k) {
								errs <- fmt.Errorf("EvalBatch(n=%d) output %d pattern %d differs from the inner oracle", n, j, k)
								return
							}
						}
					}
				case 2:
					a := make([]bool, nIn)
					x := pattern()
					for i := range a {
						a[i] = x>>uint(i)&1 == 1
					}
					if got, want := bitLine(m.Eval(a)), bitLine(f(a)); got != want {
						errs <- fmt.Errorf("Eval(%s) = %s, want %s", bitLine(a), got, want)
						return
					}
				default:
					_ = m.Stats()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := m.Stats()
	if st.Entries > capacity {
		t.Errorf("cache holds %d entries, capacity %d", st.Entries, capacity)
	}
	if st.Evictions == 0 || st.Hits == 0 {
		t.Errorf("the drive never evicted or never hit: %+v", st)
	}
	if got, want := int64(inserts.count()), st.Evictions+int64(st.Entries); got != want {
		t.Errorf("hook saw %d inserts, want evictions + entries = %d (%+v)", got, want, st)
	}
}

// statelessOracle is countingOracle's function without the call counter, so
// concurrent cache misses do not race on the oracle itself.
type statelessOracle struct{}

func (statelessOracle) NumInputs() int        { return 3 }
func (statelessOracle) NumOutputs() int       { return 1 }
func (statelessOracle) InputNames() []string  { return []string{"a", "b", "c"} }
func (statelessOracle) OutputNames() []string { return []string{"z"} }
func (statelessOracle) Eval(a []bool) []bool  { return []bool{a[0] != a[1] || a[2]} }

// TestMemoExactCapacity: the shards' bounds add up to exactly the capacity,
// also when it is not a multiple of the shard count.
func TestMemoExactCapacity(t *testing.T) {
	for _, capacity := range []int{1, 7, 127, 128, 130, 143, 1024} {
		inner := &logOracle{nIn: 12, nOut: 1}
		m := NewMemoCap(inner, capacity)
		for q := 0; q < 4096; q++ {
			a := make([]bool, 12)
			for i := range a {
				a[i] = q>>uint(i)&1 == 1
			}
			m.Eval(a)
		}
		if m.Len() != capacity {
			t.Fatalf("NewMemoCap(%d) holds %d entries after 4096 distinct keys", capacity, m.Len())
		}
		if m.Stats().Evictions != int64(4096-capacity) {
			t.Fatalf("NewMemoCap(%d): %d evictions, want %d", capacity, m.Stats().Evictions, 4096-capacity)
		}
	}
}

// TestMemoPreloadDropsMisfits: a preloaded entry whose key or response
// length does not fit the oracle can never answer a query, so it is
// dropped; a fitting one is kept.
func TestMemoPreloadDropsMisfits(t *testing.T) {
	inner := &logOracle{nIn: 12, nOut: 3}
	m := NewMemoCap(inner, 64)
	a := make([]bool, 12)
	a[3] = true
	m.Preload(MemoKey(a[:8]), []bool{true, false, true})                                        // key one byte short
	m.Preload(MemoKey(append(a, false, false, false, false, false)), []bool{true, false, true}) // a byte long
	m.Preload(MemoKey(a), []bool{true, false})                                                  // response short
	m.Preload(MemoKey(a), []bool{true, false, true, false})                                     // response long
	if m.Len() != 0 {
		t.Fatalf("misfit preloads kept: Len = %d", m.Len())
	}
	want := inner.f(a)
	m.Preload(MemoKey(a), want)
	if m.Len() != 1 {
		t.Fatalf("fitting preload dropped: Len = %d", m.Len())
	}
	if got := m.Eval(a); bitLine(got) != bitLine(want) || m.Stats().Hits != 1 || len(inner.log) != 0 {
		t.Fatalf("Eval after preload = %s (hits %d, inner calls %d), want %s from the cache",
			bitLine(got), m.Stats().Hits, len(inner.log), bitLine(want))
	}
}
