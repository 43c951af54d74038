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
}

func compareMemos(nIn, nOut, capacity int, seed int64) (evictions int64, err error) {
	rng := rand.New(rand.NewSource(seed))
	flatInner := &logOracle{nIn: nIn, nOut: nOut}
	refInner := &logOracle{nIn: nIn, nOut: nOut}
	flat := NewMemoCap(flatInner, capacity)
	ref := newRefMemo(refInner, capacity)
	var flatHooks, refHooks []*eventHook

	// A small alphabet makes keys repeat; twice the capacity (up to 2048)
	// makes every shard evict.
	alpha := make([][]bool, min(2*capacity+3, 2048))
	for i := range alpha {
		alpha[i] = make([]bool, nIn)
		for j := range alpha[i] {
			alpha[i][j] = rng.Intn(2) == 1
		}
	}
	pick := func() []bool { return alpha[rng.Intn(len(alpha))] }
	lanesOf := func(n int) []bitvec.Word {
		w := Words(n)
		lanes := make([]bitvec.Word, nIn*w)
		for k := 0; k < n; k++ {
			for i, bit := range pick() {
				if bit {
					setLaneBit(lanes, w, i, k)
				}
			}
		}
		// Tail bits are don't-cares: both memos must ignore them.
		if n%64 != 0 {
			for i := 0; i < nIn; i++ {
				lanes[i*w+w-1] |= rng.Uint64() << uint(n%64)
			}
		}
		return lanes
	}

	for step := 0; step < 40; step++ {
		var what string
		switch r := rng.Intn(20); {
		case r < 10:
			n := 1 + rng.Intn(300)
			lanes := lanesOf(n)
			what = fmt.Sprintf("EvalBatch(n=%d)", n)
			got, want := flat.EvalBatch(lanes, n), ref.EvalBatch(lanes, n)
			if !slices.Equal(got, want) {
				return 0, fmt.Errorf("step %d %s: results differ", step, what)
			}
		case r < 13:
			a := pick()
			what = "Eval"
			if got, want := bitLine(flat.Eval(a)), bitLine(ref.Eval(a)); got != want {
				return 0, fmt.Errorf("step %d Eval: %s, reference %s", step, got, want)
			}
		case r < 15:
			lanes := lanesOf(64)
			what = "EvalWords"
			if got, want := EvalWords(flat, lanes), ref.EvalBatch(lanes, 64); !slices.Equal(got, want) {
				return 0, fmt.Errorf("step %d EvalWords: results differ", step)
			}
		case r < 18:
			what = "Preload"
			for i := rng.Intn(5); i >= 0; i-- {
				a := pick()
				key, out := MemoKey(a), refInner.f(a)
				flat.Preload(key, out)
				ref.Preload(key, out)
			}
		default:
			what = "SetHook"
			if rng.Intn(3) == 0 {
				flat.SetHook(nil)
				ref.SetHook(nil)
			} else {
				fh, rh := &eventHook{}, &eventHook{}
				flatHooks, refHooks = append(flatHooks, fh), append(refHooks, rh)
				flat.SetHook(fh)
				ref.SetHook(rh)
			}
		}
		st := flat.Stats()
		got := [4]int64{st.Hits, st.Misses, st.Evictions, int64(st.Entries)}
		want := [4]int64{ref.hits.Load(), ref.misses.Load(), ref.evictions.Load(), int64(ref.Len())}
		if got != want {
			return 0, fmt.Errorf("step %d %s: hits/misses/evictions/len %v, reference %v", step, what, got, want)
		}
	}
	if a, b := strings.Join(flatInner.log, "\n"), strings.Join(refInner.log, "\n"); a != b {
		return 0, fmt.Errorf("inner call logs differ (%d vs %d calls)", len(flatInner.log), len(refInner.log))
	}
	for i := range flatHooks {
		if a, b := strings.Join(flatHooks[i].events, "\n"), strings.Join(refHooks[i].events, "\n"); a != b {
			return 0, fmt.Errorf("hook %d event sequences differ (%d vs %d events)", i, len(flatHooks[i].events), len(refHooks[i].events))
		}
	}
	return ref.evictions.Load(), nil
}
