package oracle

// The reference-equivalence test for the flat memo: refMemo below is the
// map + container/list memo the flat one replaced, kept verbatim in
// behaviour (a string key per pattern, one list element per entry, per-shard
// capacity rounded up). Both memos are driven with the same mix of Eval,
// EvalWords, EvalBatch, Preload and SetHook calls and must agree on every
// result, counter and length after every step, on the inner oracle's call
// log and on the hook event sequence.

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"logicregression/internal/bitvec"
)

type refMemo struct {
	inner     Oracle
	shards    []refShard
	capacity  int // per shard
	hook      atomic.Pointer[MemoHook]
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type refShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type refEntry struct {
	key string
	out []bool
}

func newRefMemo(o Oracle, capacity int) *refMemo {
	nShards := memoShardCount
	if capacity < 8*memoShardCount {
		nShards = 1
	}
	m := &refMemo{
		inner:    o,
		shards:   make([]refShard, nShards),
		capacity: (capacity + nShards - 1) / nShards,
	}
	for i := range m.shards {
		m.shards[i].entries = make(map[string]*list.Element)
		m.shards[i].order = list.New()
	}
	return m
}

func (o *refMemo) SetHook(h MemoHook) {
	if h == nil {
		o.hook.Store(nil)
		return
	}
	o.hook.Store(&h)
}

func (o *refMemo) currentHook() MemoHook {
	if p := o.hook.Load(); p != nil {
		return *p
	}
	return nil
}

func (o *refMemo) shard(key string) *refShard {
	if len(o.shards) == 1 {
		return &o.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &o.shards[h&uint32(len(o.shards)-1)]
}

func (o *refMemo) get(s *refShard, key string) ([]bool, bool) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		out := el.Value.(*refEntry).out
		s.mu.Unlock()
		o.hits.Add(1)
		return out, true
	}
	s.mu.Unlock()
	o.misses.Add(1)
	return nil, false
}

func (o *refMemo) put(s *refShard, key string, out []bool) {
	inserted, evicted := o.insert(s, key, out)
	if evicted != nil {
		o.evictions.Add(int64(len(evicted)))
	}
	if h := o.currentHook(); h != nil && inserted {
		h.MemoInsert(key, out)
	}
}

func (o *refMemo) insert(s *refShard, key string, out []bool) (inserted bool, evicted []*refEntry) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return false, nil
	}
	s.entries[key] = s.order.PushFront(&refEntry{key: key, out: out})
	for s.order.Len() > o.capacity {
		last := s.order.Back()
		s.order.Remove(last)
		e := last.Value.(*refEntry)
		delete(s.entries, e.key)
		evicted = append(evicted, e)
	}
	s.mu.Unlock()
	return true, evicted
}

func (o *refMemo) Preload(key string, out []bool) {
	o.insert(o.shard(key), key, append([]bool(nil), out...))
}

func (o *refMemo) Eval(a []bool) []bool {
	key := assignKey(a)
	s := o.shard(key)
	if out, ok := o.get(s, key); ok {
		return append([]bool(nil), out...)
	}
	v := o.inner.Eval(a)
	o.put(s, key, append([]bool(nil), v...))
	return v
}

func (o *refMemo) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	nIn, nOut := o.inner.NumInputs(), o.inner.NumOutputs()
	w := Words(n)
	checkBatch(len(patterns), nIn, n)
	out := make([]bitvec.Word, nOut*w)

	assign := make([]bool, nIn)
	missOf := make(map[string]int, n)
	ref := make([]int, n)
	missAssign := make([][]bool, 0, n)
	missKeys := make([]string, 0, n)
	for k := 0; k < n; k++ {
		patternBools(patterns, w, nIn, k, assign)
		key := assignKey(assign)
		if m, dup := missOf[key]; dup {
			ref[k] = m
			continue
		}
		if v, ok := o.get(o.shard(key), key); ok {
			ref[k] = -1
			scatterBools(out, w, k, v)
			continue
		}
		missOf[key] = len(missAssign)
		ref[k] = len(missAssign)
		missAssign = append(missAssign, append([]bool(nil), assign...))
		missKeys = append(missKeys, key)
	}
	if len(missAssign) == 0 {
		return out
	}
	missLanes := packPatterns(missAssign, nIn)
	missOut := AsBatch(o.inner).EvalBatch(missLanes, len(missAssign))
	mw := Words(len(missAssign))
	missVals := make([][]bool, len(missAssign))
	for m, key := range missKeys {
		v := make([]bool, nOut)
		patternBools(missOut, mw, nOut, m, v)
		missVals[m] = v
		o.put(o.shard(key), key, v)
	}
	for k := 0; k < n; k++ {
		if ref[k] >= 0 {
			scatterBools(out, w, k, missVals[ref[k]])
		}
	}
	return out
}

func (o *refMemo) Len() int {
	total := 0
	for i := range o.shards {
		s := &o.shards[i]
		s.mu.Lock()
		total += s.order.Len()
		s.mu.Unlock()
	}
	return total
}

// packPatterns packs per-pattern bool assignments into lane layout.
func packPatterns(assigns [][]bool, nLanes int) []bitvec.Word {
	w := Words(len(assigns))
	lanes := make([]bitvec.Word, nLanes*w)
	for k, a := range assigns {
		for i, bit := range a {
			if bit {
				setLaneBit(lanes, w, i, k)
			}
		}
	}
	return lanes
}

// assignKey is the reference memo's key: an assignment's bits packed
// little-endian into bytes.
func assignKey(a []bool) string {
	buf := make([]byte, (len(a)+7)/8)
	for i, b := range a {
		if b {
			buf[i>>3] |= 1 << uint(i&7)
		}
	}
	return string(buf)
}

// logOracle is a cheap deterministic black box that logs every call it
// receives: output j is input j%nIn XOR input (7j+3)%nIn, inverted on odd j.
type logOracle struct {
	nIn, nOut int
	log       []string
}

func (o *logOracle) NumInputs() int        { return o.nIn }
func (o *logOracle) NumOutputs() int       { return o.nOut }
func (o *logOracle) InputNames() []string  { return make([]string, o.nIn) }
func (o *logOracle) OutputNames() []string { return make([]string, o.nOut) }

func (o *logOracle) f(a []bool) []bool {
	out := make([]bool, o.nOut)
	for j := range out {
		out[j] = a[j%o.nIn] != a[(7*j+3)%o.nIn] != (j&1 == 1)
	}
	return out
}

func (o *logOracle) Eval(a []bool) []bool {
	o.log = append(o.log, "eval "+bitLine(a))
	return o.f(a)
}

func (o *logOracle) EvalBatch(lanes []bitvec.Word, n int) []bitvec.Word {
	o.log = append(o.log, fmt.Sprintf("batch %d %x", n, lanes))
	w := Words(n)
	out := make([]bitvec.Word, o.nOut*w)
	a := make([]bool, o.nIn)
	for k := 0; k < n; k++ {
		patternBools(lanes, w, o.nIn, k, a)
		scatterBools(out, w, k, o.f(a))
	}
	return out
}

// bitLine renders bits as a '0'/'1' line.
func bitLine(bits []bool) string {
	buf := make([]byte, len(bits))
	bitvec.FormatRow(buf, packRow(bits))
	return string(buf)
}

// eventHook records hook events as one string each.
type eventHook struct{ events []string }

func (h *eventHook) MemoInsert(key string, out []bool) {
	h.events = append(h.events, fmt.Sprintf("insert %x %s", key, bitLine(out)))
}

func TestMemoMatchesReference(t *testing.T) {
	ins := []int{1, 3, 8, 56, 63, 64, 65, 173}
	outs := []int{1, 7, 64, 70}
	caps := []int{1, 2, 7, 127, 128, 1024, 1 << 18}
	for _, nIn := range ins {
		for _, nOut := range outs {
			for _, capacity := range caps {
				name := fmt.Sprintf("in%d/out%d/cap%d", nIn, nOut, capacity)
				seed := int64(nIn*1_000_000 + nOut*10_000 + capacity%9973)
				evictions, err := compareMemos(nIn, nOut, capacity, seed)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if nIn >= 56 && capacity <= 1024 && evictions == 0 {
					t.Fatalf("%s: the drive never evicted", name)
				}
			}
		}
	}
	t.Run("sweep", func(t *testing.T) {
		// Batches the size of the learner's sweeps, sent in turn to two
		// pairs of different key and response widths, so each batch runs
		// on pooled scratch that the other geometry sized last.
		for _, capacity := range []int{1024, 1 << 18} {
			rng := rand.New(rand.NewSource(int64(capacity)))
			pairs := []*memoPair{newMemoPair(56, 5, capacity, rng), newMemoPair(173, 70, capacity, rng)}
			pairs[0].setHook(true)
			for _, n := range []int{4096, 16384, 16385} {
				for i, p := range pairs {
					if err := p.evalBatch(rng, n, 0.9); err != nil {
						t.Fatalf("cap%d pair %d EvalBatch(n=%d): %v", capacity, i, n, err)
					}
				}
			}
			for i, p := range pairs {
				if err := p.finish(); err != nil {
					t.Fatalf("cap%d pair %d: %v", capacity, i, err)
				}
				if capacity == 1024 && p.ref.evictions.Load() == 0 {
					t.Fatalf("cap%d pair %d: the drive never evicted", capacity, i)
				}
			}
		}
	})
}

// memoPair is a flat memo and a reference memo of the same capacity, each
// over its own logOracle, that every drive step queries alike.
type memoPair struct {
	nIn                 int
	flatInner, refInner *logOracle
	flat                *Memo
	ref                 *refMemo
	flatHooks, refHooks []*eventHook
	// alpha is a small alphabet of assignments, so that keys repeat.
	alpha [][]bool
}

// newMemoPair builds a pair whose alphabet holds twice the capacity (up to
// 2048), so that drawing from it makes every shard evict.
func newMemoPair(nIn, nOut, capacity int, rng *rand.Rand) *memoPair {
	p := &memoPair{
		nIn:       nIn,
		flatInner: &logOracle{nIn: nIn, nOut: nOut},
		refInner:  &logOracle{nIn: nIn, nOut: nOut},
	}
	p.flat = NewMemoCap(p.flatInner, capacity)
	p.ref = newRefMemo(p.refInner, capacity)
	p.alpha = make([][]bool, min(2*capacity+3, 2048))
	for i := range p.alpha {
		p.alpha[i] = randomBools(rng, nIn)
	}
	return p
}

// randomBools draws n fair random bits.
func randomBools(rng *rand.Rand, n int) []bool {
	a := make([]bool, n)
	for j := range a {
		a[j] = rng.Intn(2) == 1
	}
	return a
}

func (p *memoPair) pick(rng *rand.Rand) []bool { return p.alpha[rng.Intn(len(p.alpha))] }

// lanesOf packs n patterns, each a fresh random one with probability fresh
// and an alphabet pick otherwise.
func (p *memoPair) lanesOf(rng *rand.Rand, n int, fresh float64) []bitvec.Word {
	w := Words(n)
	lanes := make([]bitvec.Word, p.nIn*w)
	for k := 0; k < n; k++ {
		a := p.pick(rng)
		if fresh > 0 && rng.Float64() < fresh {
			a = randomBools(rng, p.nIn)
		}
		for i, bit := range a {
			if bit {
				setLaneBit(lanes, w, i, k)
			}
		}
	}
	// Tail bits are don't-cares: both memos must ignore them.
	if n%64 != 0 {
		for i := 0; i < p.nIn; i++ {
			lanes[i*w+w-1] |= rng.Uint64() << uint(n%64)
		}
	}
	return lanes
}

// evalBatch sends one n-pattern batch to both memos and compares the
// results and counters.
func (p *memoPair) evalBatch(rng *rand.Rand, n int, fresh float64) error {
	lanes := p.lanesOf(rng, n, fresh)
	if !slices.Equal(p.flat.EvalBatch(lanes, n), p.ref.EvalBatch(lanes, n)) {
		return fmt.Errorf("results differ")
	}
	return p.check()
}

// setHook attaches a fresh event hook to both memos, or detaches them.
func (p *memoPair) setHook(on bool) {
	if !on {
		p.flat.SetHook(nil)
		p.ref.SetHook(nil)
		return
	}
	fh, rh := &eventHook{}, &eventHook{}
	p.flatHooks, p.refHooks = append(p.flatHooks, fh), append(p.refHooks, rh)
	p.flat.SetHook(fh)
	p.ref.SetHook(rh)
}

// check compares the hit, miss and eviction counters and the lengths.
func (p *memoPair) check() error {
	st := p.flat.Stats()
	got := [4]int64{st.Hits, st.Misses, st.Evictions, int64(st.Entries)}
	want := [4]int64{p.ref.hits.Load(), p.ref.misses.Load(), p.ref.evictions.Load(), int64(p.ref.Len())}
	if got != want {
		return fmt.Errorf("hits/misses/evictions/len %v, reference %v", got, want)
	}
	return nil
}

// finish compares the inner oracles' call logs and the hook event
// sequences.
func (p *memoPair) finish() error {
	if a, b := strings.Join(p.flatInner.log, "\n"), strings.Join(p.refInner.log, "\n"); a != b {
		return fmt.Errorf("inner call logs differ (%d vs %d calls)", len(p.flatInner.log), len(p.refInner.log))
	}
	for i := range p.flatHooks {
		if a, b := strings.Join(p.flatHooks[i].events, "\n"), strings.Join(p.refHooks[i].events, "\n"); a != b {
			return fmt.Errorf("hook %d event sequences differ (%d vs %d events)", i, len(p.flatHooks[i].events), len(p.refHooks[i].events))
		}
	}
	return nil
}

func compareMemos(nIn, nOut, capacity int, seed int64) (evictions int64, err error) {
	rng := rand.New(rand.NewSource(seed))
	p := newMemoPair(nIn, nOut, capacity, rng)
	for step := 0; step < 40; step++ {
		var what string
		var err error
		switch r := rng.Intn(20); {
		case r < 10:
			n := 1 + rng.Intn(300)
			what = fmt.Sprintf("EvalBatch(n=%d)", n)
			err = p.evalBatch(rng, n, 0)
		case r < 13:
			a := p.pick(rng)
			what = "Eval"
			if got, want := bitLine(p.flat.Eval(a)), bitLine(p.ref.Eval(a)); got != want {
				err = fmt.Errorf("%s, reference %s", got, want)
			}
		case r < 15:
			lanes := p.lanesOf(rng, 64, 0)
			what = "EvalWords"
			if !slices.Equal(EvalWords(p.flat, lanes), p.ref.EvalBatch(lanes, 64)) {
				err = fmt.Errorf("results differ")
			}
		case r < 18:
			what = "Preload"
			for i := rng.Intn(5); i >= 0; i-- {
				a := p.pick(rng)
				key, out := MemoKey(a), p.refInner.f(a)
				p.flat.Preload(key, out)
				p.ref.Preload(key, out)
			}
		default:
			what = "SetHook"
			p.setHook(rng.Intn(3) != 0)
		}
		if err == nil {
			err = p.check()
		}
		if err != nil {
			return 0, fmt.Errorf("step %d %s: %v", step, what, err)
		}
	}
	if err := p.finish(); err != nil {
		return 0, err
	}
	return p.ref.evictions.Load(), nil
}
