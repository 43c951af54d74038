package oracle

// Memo: a sharded, bounded, memoizing oracle wrapper. The contest allows
// repeated queries, but caching keeps the learner's query count honest when
// the tree resamples overlapping regions — and with the batch interface the
// cache no longer forces scalar evaluation: a batched query probes the cache
// per pattern, gathers the misses, and forwards them to the inner oracle as
// one (smaller) batch.
//
// The cache is a bounded LRU, sharded by key hash so concurrent learners
// (Options.Parallel, multi-connection ioserve) do not serialize on one lock.
// Small capacities collapse to a single shard so eviction order stays exact.
//
// It works a word at a time. A key is a pattern's row: its input bits
// packed into RowWords(nIn) words, taken from the batch by one 64×64 bit
// transpose per 64 patterns (bitvec.LanesToRows); a cached response is a
// row of RowWords(nOut) words. Each shard is flat and pointer-free, so the
// garbage collector never scans it: an arena of key and response words per
// slot, an open-addressed index of slots tagged with their hash, and an
// intrusive int32 LRU list through the slots. A slot freed by eviction is
// refilled at once, so a shard's slots are always 0 to its length - 1.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"logicregression/internal/bitvec"
)

// DefaultMemoCapacity bounds NewMemo's cache. A cached response costs its
// key and response words, 8 bytes of LRU links and 16 to 32 bytes of
// index: about 40 bytes for a contest case of up to 64 inputs and 64
// outputs, so the default tops out near 10 MB. Shards grow to their bound
// as entries arrive.
const DefaultMemoCapacity = 1 << 18

// memoShardCount is the shard fan-out for large caches; must be a power of 2.
const memoShardCount = 16

// memoMinIndex is a shard index's initial bucket count (a power of 2).
const memoMinIndex = 16

// MemoHook observes cache fills — the attachment point for the
// write-through persistence layer (internal/store). MemoInsert fires when a
// fresh black-box response enters the cache (not on Preload, and not when a
// concurrent racer already inserted the key). It runs outside the shard
// locks, on the goroutine that caused the insert, and must not call back
// into the memo. A hook must never panic on an oracle-reachable path with
// anything but *Failure; persistence hooks swallow their I/O errors instead
// (a failing disk must not fail a learn). The key and response are built
// for the callback alone; a memo without a hook never builds them.
type MemoHook interface {
	MemoInsert(key string, out []bool)
}

// MemoKey returns the canonical cache key for an assignment (its bits
// packed little-endian into a byte string). Exported so persistence layers
// and transcript importers address the cache exactly the way the memo
// itself does.
func MemoKey(a []bool) string { return string(rowKey(nil, packRow(a), len(a))) }

// rowKey appends the MemoKey bytes of a row of n bits to dst.
func rowKey(dst []byte, row []bitvec.Word, n int) []byte {
	for i := 0; i < (n+7)/8; i++ {
		dst = append(dst, byte(row[i>>3]>>(uint(i)&7*8)))
	}
	return dst
}

// packRow packs bits into a fresh row.
func packRow(bits []bool) []bitvec.Word {
	row := make([]bitvec.Word, bitvec.RowWords(len(bits)))
	bitvec.PackBools(row, bits)
	return row
}

// Memo wraps an oracle with a bounded LRU response cache keyed on the full
// assignment. It is safe for concurrent use as long as the inner oracle is
// (misses are evaluated outside the shard locks).
type Memo struct {
	inner  Oracle
	shards []memoShard

	// The entry geometry, fixed by the inner oracle's arities: nIn input
	// bits in kw key words (kb key bytes, the bytes MemoKey packs), nOut
	// output bits in ow response words.
	nIn, nOut  int
	kw, ow, kb int

	// hook is the attached fill observer (nil when none). Stored as an
	// atomic pointer so SetHook synchronizes with concurrent queries.
	hook atomic.Pointer[MemoHook]

	// Stats are memo-level atomics rather than per-shard fields so the
	// serving metrics surface can read hit rates without touching a single
	// shard lock (a snapshot may be taken thousands of times per second
	// while every shard is under load).
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// memoShard is one LRU cache of at most limit entries. Slot s holds its
// key words at words[s*stride:] and its response words right after them
// (stride = kw+ow); next and prev link the slots from the most recently
// used (head) to the least (tail), -1 ending the list. index maps a key's
// hash to its slot by linear probing: a bucket holds slot+1 in its low half
// and the hash's top half as a tag (0 is an empty bucket), so a probe reads
// a slot's key only on a tag match; it is at most half full.
type memoShard struct {
	mu         sync.Mutex
	limit      int32
	head, tail int32
	next, prev []int32
	words      []bitvec.Word
	index      []uint64
	shift      uint // 64 - log2(len(index)): a hash's top bits pick its bucket
}

// NewMemo wraps o with a memoization cache of DefaultMemoCapacity entries.
func NewMemo(o Oracle) *Memo { return NewMemoCap(o, DefaultMemoCapacity) }

// NewMemoCap wraps o with a memoization cache bounded to capacity entries
// (least-recently-used eviction). capacity < 1 panics.
func NewMemoCap(o Oracle, capacity int) *Memo {
	if capacity < 1 {
		panic("oracle: memo capacity must be positive")
	}
	nShards := memoShardCount
	if capacity < 8*memoShardCount {
		// A tiny cache sharded 16 ways would evict almost arbitrarily;
		// keep eviction order exact instead.
		nShards = 1
	}
	nIn, nOut := o.NumInputs(), o.NumOutputs()
	m := &Memo{
		inner:  o,
		shards: make([]memoShard, nShards),
		nIn:    nIn,
		nOut:   nOut,
		kw:     bitvec.RowWords(nIn),
		ow:     bitvec.RowWords(nOut),
		kb:     (nIn + 7) / 8,
	}
	// The first capacity%nShards shards hold one entry more, so the shards
	// add up to exactly capacity.
	for i := range m.shards {
		s := &m.shards[i]
		s.limit = int32(capacity / nShards)
		if i < capacity%nShards {
			s.limit++
		}
		s.head, s.tail = -1, -1
		s.reindex(memoMinIndex)
	}
	return m
}

// SetHook attaches a fill observer (nil detaches). Attach before the first
// query: the hook sees only the inserts that follow it, and an entry
// cached earlier never reaches it.
func (o *Memo) SetHook(h MemoHook) {
	if h == nil {
		o.hook.Store(nil)
		return
	}
	o.hook.Store(&h)
}

// currentHook loads the attached hook, nil when none.
func (o *Memo) currentHook() MemoHook {
	if p := o.hook.Load(); p != nil {
		return *p
	}
	return nil
}

func (o *Memo) NumInputs() int        { return o.inner.NumInputs() }
func (o *Memo) NumOutputs() int       { return o.inner.NumOutputs() }
func (o *Memo) InputNames() []string  { return o.inner.InputNames() }
func (o *Memo) OutputNames() []string { return o.inner.OutputNames() }

// shard picks the shard for a key by FNV-1a hash over its kb key bytes,
// the bytes of MemoKey.
//
//logicreg:hotpath
func (o *Memo) shard(key []bitvec.Word) *memoShard {
	if len(o.shards) == 1 {
		return &o.shards[0]
	}
	h := uint32(2166136261)
	nb := o.kb
	for _, x := range key {
		for j := 0; j < 8 && nb > 0; j++ {
			h = (h ^ uint32(byte(x))) * 16777619
			x >>= 8
			nb--
		}
	}
	return &o.shards[h&uint32(len(o.shards)-1)]
}

// memoHash mixes a key's words into the hash that places it in a shard
// index and in a batch's miss table; the top bits are the bucket.
//
//logicreg:hotpath
func memoHash(key []bitvec.Word) uint64 {
	h := uint64(0x243F6A8885A308D3)
	for _, x := range key {
		h = (h ^ x) * 0x9E3779B97F4A7C15
	}
	return h
}

// sameKey reports whether two keys of equal length are equal.
//
//logicreg:hotpath
func sameKey(a, b []bitvec.Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if b[i] != x {
			return false
		}
	}
	return true
}

// find returns the slot caching key (-1 when none) and the bucket the probe
// stopped at: the key's own, or the empty bucket it would be indexed in.
// Only a bucket whose tag matches the hash's top half costs a key
// comparison. The caller holds s.mu.
//
//logicreg:hotpath
func (s *memoShard) find(key []bitvec.Word, h uint64, stride int) (bucket int, slot int32) {
	mask := len(s.index) - 1
	for b := int(h>>(s.shift&63)) & mask; ; b = (b + 1) & mask {
		e := s.index[b]
		if e == 0 {
			return b, -1
		}
		if e>>32 == h>>32 {
			at := int(uint32(e)-1) * stride
			if sameKey(s.words[at:at+len(key)], key) {
				return b, int32(uint32(e) - 1)
			}
		}
	}
}

// indexEntry is slot's index bucket content under hash h.
func indexEntry(h uint64, slot int32) uint64 { return h>>32<<32 | uint64(slot+1) }

// home returns the bucket an index entry's hash picks.
func (s *memoShard) home(e uint64) int {
	return int(e>>32>>((s.shift-32)&63)) & (len(s.index) - 1)
}

// unindex empties bucket b, moving later members of its probe run back into
// the hole so that no probe stops short of its key (backward-shift
// deletion: no tombstones).
func (s *memoShard) unindex(b int) {
	mask := len(s.index) - 1
	for j := (b + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies
		// cyclically in (b, j].
		if (j-s.home(s.index[j]))&mask >= (j-b)&mask {
			s.index[b] = s.index[j]
			b = j
		}
	}
	s.index[b] = 0
}

// reindex rebuilds the index at size buckets (a power of 2).
func (s *memoShard) reindex(size int) {
	old := s.index
	s.index = make([]uint64, size)
	s.shift = 64
	for n := size; n > 1; n >>= 1 {
		s.shift--
	}
	mask := size - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		b := s.home(e)
		for s.index[b] != 0 {
			b = (b + 1) & mask
		}
		s.index[b] = e
	}
}

// unlink takes slot x out of the LRU list.
func (s *memoShard) unlink(x int32) {
	p, n := s.prev[x], s.next[x]
	if p >= 0 {
		s.next[p] = n
	} else {
		s.head = n
	}
	if n >= 0 {
		s.prev[n] = p
	} else {
		s.tail = p
	}
}

// pushFront makes slot x the most recently used.
func (s *memoShard) pushFront(x int32) {
	s.prev[x] = -1
	s.next[x] = s.head
	if s.head >= 0 {
		s.prev[s.head] = x
	} else {
		s.tail = x
	}
	s.head = x
}

// touch marks slot x most recently used.
func (s *memoShard) touch(x int32) {
	if s.head != x {
		s.unlink(x)
		s.pushFront(x)
	}
}

// get copies the response cached for key into resp and bumps its recency;
// false when key is not cached. The caller accounts the probe.
func (o *Memo) get(s *memoShard, key []bitvec.Word, h uint64, resp []bitvec.Word) bool {
	stride := o.kw + o.ow
	s.mu.Lock()
	_, slot := s.find(key, h, stride)
	if slot >= 0 {
		s.touch(slot)
		at := int(slot)*stride + o.kw
		copy(resp, s.words[at:at+o.ow])
	}
	s.mu.Unlock()
	return slot >= 0
}

// insert is the locked core of put and Preload: unless key is cached
// already (then it only becomes the most recent entry), it caches resp
// under key, evicting the least recently used entry first when the shard is
// full. It reports whether key was freshly inserted and whether an entry
// was evicted.
func (o *Memo) insert(s *memoShard, key, resp []bitvec.Word, h uint64) (inserted, evicted bool) {
	kw, stride := o.kw, o.kw+o.ow
	s.mu.Lock()
	b, slot := s.find(key, h, stride)
	if slot >= 0 {
		s.touch(slot)
		s.mu.Unlock()
		return false, false
	}
	if n := len(s.next); n < int(s.limit) {
		slot = int32(n)
		s.next = append(s.next, -1)
		s.prev = append(s.prev, -1)
		s.words = append(s.words, make([]bitvec.Word, stride)...)
		if 2*(n+1) > len(s.index) {
			s.reindex(2 * len(s.index))
			b, _ = s.find(key, h, stride)
		}
	} else {
		slot = s.tail
		at := int(slot) * stride
		s.unlink(slot)
		vh := memoHash(s.words[at : at+kw])
		vb := int(vh>>(s.shift&63)) & (len(s.index) - 1)
		for s.index[vb] != indexEntry(vh, slot) {
			vb = (vb + 1) & (len(s.index) - 1)
		}
		s.unindex(vb)
		b, _ = s.find(key, h, stride)
		evicted = true
	}
	at := int(slot) * stride
	copy(s.words[at:at+kw], key)
	copy(s.words[at+kw:at+stride], resp)
	s.index[b] = indexEntry(h, slot)
	s.pushFront(slot)
	s.mu.Unlock()
	return true, evicted
}

// put caches a fresh black-box response. Concurrent racers inserting the
// same key are harmless: the values are identical by determinism of the
// oracle. The hook fires after the shard lock is released.
func (o *Memo) put(s *memoShard, key, resp []bitvec.Word, h uint64) {
	inserted, evicted := o.insert(s, key, resp, h)
	if evicted {
		o.evictions.Add(1)
	}
	if hook := o.currentHook(); hook != nil && inserted {
		hook.MemoInsert(o.keyString(key), o.bools(resp))
	}
}

// keyString renders key words as MemoKey bytes.
func (o *Memo) keyString(key []bitvec.Word) string {
	return string(rowKey(make([]byte, 0, o.kb), key, o.nIn))
}

// bools expands response words into a fresh []bool.
func (o *Memo) bools(resp []bitvec.Word) []bool {
	out := make([]bool, o.nOut)
	bitvec.UnpackBools(out, resp)
	return out
}

// Preload inserts a response without touching the hit/miss counters and
// without firing the hook — the warm-start path, used to replay a persisted
// memo log (or another memo's contents) into a fresh cache. Preloading
// never changes learn results, only which queries reach the inner oracle —
// the cached values are the oracle's own answers, so a warm learn is
// byte-identical to a cold one at the same seed. An entry whose key is not
// MemoKey-sized for the inner oracle's inputs, or whose response is not one
// bit per output, can never answer a query and is dropped.
func (o *Memo) Preload(key string, out []bool) {
	if len(key) != o.kb || len(out) != o.nOut {
		return
	}
	row := make([]bitvec.Word, o.kw+o.ow)
	for i := 0; i < len(key); i++ {
		row[i>>3] |= bitvec.Word(key[i]) << (uint(i) & 7 * 8)
	}
	k, resp := row[:o.kw], row[o.kw:]
	bitvec.PackBools(resp, out)
	o.insert(o.shard(k), k, resp, memoHash(k))
}

func (o *Memo) Eval(a []bool) []bool {
	if len(a) != o.nIn {
		panic(fmt.Sprintf("oracle: memo Eval got %d bits for %d inputs", len(a), o.nIn))
	}
	row := make([]bitvec.Word, o.kw+o.ow)
	key, resp := row[:o.kw], row[o.kw:]
	bitvec.PackBools(key, a)
	h, s := memoHash(key), o.shard(key)
	if o.get(s, key, h, resp) {
		o.hits.Add(1)
		return o.bools(resp)
	}
	o.misses.Add(1)
	v := o.inner.Eval(a)
	if len(v) != o.nOut {
		panic(fmt.Sprintf("oracle: inner Eval returned %d bits for %d outputs", len(v), o.nOut))
	}
	bitvec.PackBools(resp, v)
	o.put(s, key, resp, h)
	return v
}

// EvalBatch probes the cache per pattern, in pattern order, deduplicates
// the misses, forwards them to the inner oracle as one batch, and fills the
// cache with the fresh responses in miss order. A pattern whose key already
// missed earlier in the batch takes that miss's answer without a probe.
func (o *Memo) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	nIn, kw, ow := o.nIn, o.kw, o.ow
	w := Words(n)
	checkBatch(len(patterns), nIn, n)

	resp := make([]bitvec.Word, n*ow) // every pattern's response row
	ref := make([]int32, n)           // per pattern: miss number, or -1 on a hit
	missKeys := make([]bitvec.Word, 0, n*kw)
	// seen indexes this batch's misses by key hash: miss number + 1, 0
	// empty, at most half full.
	size, shift := 2, uint(63)
	for size < 2*n {
		size, shift = 2*size, shift-1
	}
	seen := make([]int32, size)
	mask := size - 1
	rows := make([]bitvec.Word, 64*kw)
	var hits int64
	var nMiss int32
	for b := 0; b < w; b++ {
		bitvec.LanesToRows(rows, patterns, w, nIn, b)
		for p := 0; p < 64 && 64*b+p < n; p++ {
			k := 64*b + p
			key := rows[p*kw : (p+1)*kw]
			h := memoHash(key)
			bk := int(h>>(shift&63)) & mask
			for seen[bk] != 0 && !sameKey(missKeys[int(seen[bk]-1)*kw:int(seen[bk])*kw], key) {
				bk = (bk + 1) & mask
			}
			if seen[bk] != 0 {
				ref[k] = seen[bk] - 1
				continue
			}
			if o.get(o.shard(key), key, h, resp[k*ow:(k+1)*ow]) {
				ref[k] = -1
				hits++
				continue
			}
			nMiss++
			seen[bk] = nMiss
			ref[k] = nMiss - 1
			missKeys = append(missKeys, key...)
		}
	}
	o.hits.Add(hits)
	o.misses.Add(int64(nMiss))

	if nMiss > 0 {
		missResp := o.evalMisses(missKeys, int(nMiss))
		for m := 0; m < int(nMiss); m++ {
			key := missKeys[m*kw : (m+1)*kw]
			o.put(o.shard(key), key, missResp[m*ow:(m+1)*ow], memoHash(key))
		}
		for k, m := range ref {
			if m >= 0 {
				copy(resp[k*ow:(k+1)*ow], missResp[int(m)*ow:int(m+1)*ow])
			}
		}
	}
	out := make([]bitvec.Word, o.nOut*w)
	for b := 0; b < w; b++ {
		bitvec.RowsToLanes(out, w, o.nOut, b, resp[64*b*ow:min(n, 64*b+64)*ow])
	}
	return out
}

// evalMisses asks the inner oracle for the nMiss key rows of missKeys as
// one batch and returns the response rows in the same order.
func (o *Memo) evalMisses(missKeys []bitvec.Word, nMiss int) []bitvec.Word {
	kw, ow := o.kw, o.ow
	mw := Words(nMiss)
	lanes := make([]bitvec.Word, o.nIn*mw)
	for b := 0; b < mw; b++ {
		bitvec.RowsToLanes(lanes, mw, o.nIn, b, missKeys[64*b*kw:min(nMiss, 64*b+64)*kw])
	}
	res := AsBatch(o.inner).EvalBatch(lanes, nMiss)
	rows := make([]bitvec.Word, nMiss*ow)
	for b := 0; b < mw; b++ {
		bitvec.LanesToRows(rows[64*b*ow:min(nMiss, 64*b+64)*ow], res, mw, o.nOut, b)
	}
	return rows
}

// Len returns the number of cached responses.
func (o *Memo) Len() int {
	total := 0
	for i := range o.shards {
		s := &o.shards[i]
		s.mu.Lock()
		total += len(s.next)
		s.mu.Unlock()
	}
	return total
}

// MemoStats is a point-in-time snapshot of a memo's cache behaviour.
type MemoStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// HitRate returns hits/(hits+misses), or 0 before the first probe.
func (s MemoStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Add returns the entrywise sum of two snapshots, for aggregating stats
// across the per-session and per-job memos of a serving fleet.
func (s MemoStats) Add(t MemoStats) MemoStats {
	return MemoStats{
		Hits:      s.Hits + t.Hits,
		Misses:    s.Misses + t.Misses,
		Evictions: s.Evictions + t.Evictions,
		Entries:   s.Entries + t.Entries,
	}
}

// Stats snapshots the counters. The counters are read atomically but not as
// one unit: a snapshot taken under load may be off by in-flight probes,
// which is fine for monitoring.
func (o *Memo) Stats() MemoStats {
	return MemoStats{
		Hits:      o.hits.Load(),
		Misses:    o.misses.Load(),
		Evictions: o.evictions.Load(),
		Entries:   o.Len(),
	}
}
