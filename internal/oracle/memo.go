package oracle

// Memo: a sharded, bounded, memoizing oracle wrapper. The contest allows
// repeated queries, but caching keeps the learner's query count honest when
// the tree resamples overlapping regions — and with the batch interface the
// cache no longer forces scalar evaluation: a batched query probes the cache
// for every pattern, gathers the misses, and forwards them to the inner
// oracle as one (smaller) batch.
//
// The cache is a bounded LRU, sharded by key hash so concurrent learners
// (Options.Parallel, multi-connection ioserve) do not serialize on one lock.
// Small capacities collapse to a single shard so eviction order stays exact.
//
// It works a word at a time. A key is a pattern's row: its input bits
// packed into RowWords(nIn) words, taken from the batch by one 64×64 bit
// transpose per 64 patterns (bitvec.LanesToRows); a cached response is a
// row of RowWords(nOut) words. A shard holds its slots in segments that are
// allocated as it fills and never moved or copied: segment 0 holds slots 0
// to 15 and segment k >= 1 slots 8·2^k to 16·2^k - 1, the last one cut at
// the shard's bound. So a shard of m >= 16 slots has allocated at most 2m
// slots and a full one exactly its bound, while a small memo stays small.
// A segment is pointer-free, key and response words and int32 LRU links
// per slot, so the garbage collector never scans it; beside the segments a
// shard has an open-addressed index of slots tagged with their hash, which
// doubles as the shard fills. A slot freed by eviction is refilled at once,
// so a shard's slots are always 0 to its length - 1.
//
// A batch works a shard at a time: its patterns are grouped by shard, and
// each shard is locked once to probe its group and once to fill its misses.
// Probes and fills spend most of their time waiting on cache misses in the
// index and the arena, so each loop is preceded by a pass that loads what
// the loop will read, and the processor overlaps those misses. A batch's
// own buffers come from a sync.Pool.

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"logicregression/internal/bitvec"
)

// DefaultMemoCapacity bounds NewMemo's cache. A cached response costs its
// key and response words, 8 bytes of LRU links and 16 to 32 bytes of
// index: about 40 bytes for a contest case of up to 64 inputs and 64
// outputs, so the default tops out near 10 MB. Shards take their slots in
// segments as entries arrive, never more than twice the slots in use, and
// a full shard holds exactly its bound.
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

// memoShard is one LRU cache of at most limit entries, in slots 0 to n-1.
// Slot x lives in segment bits.Len(x>>4), which the shard allocates when
// it first fills a slot of it (see memoSegStart); a slot's words are its
// key words and then its response words (stride = kw+ow), and its links
// chain the slots from the most recently used (head) to the least (tail),
// -1 ending the list. index maps a key's hash to its slot by linear
// probing: a bucket holds slot+1 in its low half and the hash's top half as
// a tag (0 is an empty bucket), so a probe reads a slot's key only on a tag
// match; it is at most half full.
type memoShard struct {
	mu         sync.Mutex
	limit, n   int32
	head, tail int32
	segs       []memoSeg
	index      []uint64
	shift      uint // 64 - log2(len(index)): a hash's top bits pick its bucket
}

// memoSeg is one segment of a shard's slots: the slot at offset i has its
// stride words at words[i*stride:] and its LRU links at links[i].
type memoSeg struct {
	words []bitvec.Word
	links []memoLink
}

// memoLink is a slot's place in its shard's LRU list.
type memoLink struct{ next, prev int32 }

// memoSegStart is the first slot of segment k: segment 0 holds slots 0 to
// 15, and segment k >= 1 the 8·2^k slots from 8·2^k, so segments 0 to k
// hold 16·2^k slots in all.
func memoSegStart(k int) int {
	if k == 0 {
		return 0
	}
	return 8 << k
}

// locate returns the segment k holding slot x and x's offset in it, x less
// the segment's first slot: x's low four bits in segment 0, and in segment
// k >= 1 x without its top bit, the one worth 8·2^k.
func (s *memoShard) locate(x int32) (*memoSeg, int) {
	k := bits.Len32(uint32(x) >> 4)
	return &s.segs[k], int(x) & (8<<k - 1 | 15)
}

// slot returns slot x's stride words: its key words, then its response
// words.
func (s *memoShard) slot(x int32, stride int) []bitvec.Word {
	g, i := s.locate(x)
	return g.words[i*stride : (i+1)*stride]
}

// link returns slot x's LRU links.
func (s *memoShard) link(x int32) *memoLink {
	g, i := s.locate(x)
	return &g.links[i]
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

// shard picks the shard for a key.
func (o *Memo) shard(key []bitvec.Word) *memoShard { return &o.shards[o.shardIndex(key)] }

// shardIndex numbers the shard for a key by FNV-1a hash over its kb key
// bytes, the bytes of MemoKey.
//
//logicreg:hotpath
func (o *Memo) shardIndex(key []bitvec.Word) int {
	if len(o.shards) == 1 {
		return 0
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
	return int(h & uint32(len(o.shards)-1))
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
		if slot := int32(uint32(e) - 1); e>>32 == h>>32 && sameKey(s.slot(slot, stride)[:len(key)], key) {
			return b, slot
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
	l := s.link(x)
	if l.prev >= 0 {
		s.link(l.prev).next = l.next
	} else {
		s.head = l.next
	}
	if l.next >= 0 {
		s.link(l.next).prev = l.prev
	} else {
		s.tail = l.prev
	}
}

// pushFront makes slot x the most recently used.
func (s *memoShard) pushFront(x int32) {
	*s.link(x) = memoLink{next: s.head, prev: -1}
	if s.head >= 0 {
		s.link(s.head).prev = x
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
		copy(resp, s.slot(slot, stride)[o.kw:])
	}
	s.mu.Unlock()
	return slot >= 0
}

// insert is the core of put and Preload: add under the shard lock.
func (o *Memo) insert(s *memoShard, key, resp []bitvec.Word, h uint64) (inserted, evicted bool) {
	s.mu.Lock()
	inserted, evicted = s.add(key, resp, h, o.kw+o.ow)
	s.mu.Unlock()
	return inserted, evicted
}

// add caches resp under key unless key is cached already (then it only
// becomes the most recent entry), evicting the least recently used entry
// first when the shard is full. It reports whether key was freshly inserted
// and whether an entry was evicted. The caller holds s.mu.
func (s *memoShard) add(key, resp []bitvec.Word, h uint64, stride int) (inserted, evicted bool) {
	kw := len(key)
	b, slot := s.find(key, h, stride)
	if slot >= 0 {
		s.touch(slot)
		return false, false
	}
	if s.n < s.limit {
		slot = s.n
		s.n++
		if k := len(s.segs); int(slot) == memoSegStart(k) {
			size := min(memoSegStart(k+1), int(s.limit)) - int(slot)
			s.segs = append(s.segs, memoSeg{words: make([]bitvec.Word, size*stride), links: make([]memoLink, size)})
		}
		if 2*int(s.n) > len(s.index) {
			s.reindex(2 * len(s.index))
			b, _ = s.find(key, h, stride)
		}
	} else {
		slot = s.tail
		s.unlink(slot)
		vh := memoHash(s.slot(slot, stride)[:kw])
		vb := int(vh>>(s.shift&63)) & (len(s.index) - 1)
		for s.index[vb] != indexEntry(vh, slot) {
			vb = (vb + 1) & (len(s.index) - 1)
		}
		s.unindex(vb)
		b, _ = s.find(key, h, stride)
		evicted = true
	}
	w := s.slot(slot, stride)
	copy(w[:kw], key)
	copy(w[kw:], resp)
	s.index[b] = indexEntry(h, slot)
	s.pushFront(slot)
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

// EvalBatch answers a batch shard by shard. It hashes every pattern's key
// once and groups the patterns by shard, in pattern order within a group;
// then it locks each shard once to probe its group and once more, after the
// inner call, to fill in its misses in miss order. Shards share no state,
// so each one sees the probes and fills that probing every pattern in turn
// and filling every miss in turn would make: the LRU order and the counters
// are the same, and so are the inner batch (the deduplicated misses in
// pattern order) and the hook events (in miss order, fired after the fills
// outside the locks). A pattern whose key already missed earlier in the
// batch takes that miss's answer without a probe and counts as a hit: the
// box is never asked for it, so hits plus misses is the patterns probed.
//
// A probe or fill mostly waits on cache misses: the index bucket of its
// key and, in a full shard, the key words and bucket of the entry it
// evicts. So before each loop, warm and warmVictims load all of them in
// one pass of independent loads, which the processor overlaps.
func (o *Memo) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	nIn, kw, ow := o.nIn, o.kw, o.ow
	stride := kw + ow
	w := Words(n)
	checkBatch(len(patterns), nIn, n)
	sc := memoScratchPool.Get().(*memoScratch)

	// Take the keys, hash them, and sort the patterns by shard (a stable
	// counting sort): shard si's group is order[start[si]:start[si+1]].
	keys := grow(&sc.keys, n*kw)
	for b := 0; b < w; b++ {
		bitvec.LanesToRows(keys[64*b*kw:min(n, 64*b+64)*kw], patterns, w, nIn, b)
	}
	hash, shardOf := grow(&sc.hash, n), grow(&sc.shardOf, n)
	var start [memoShardCount + 1]int32
	for k := 0; k < n; k++ {
		key := keys[k*kw : (k+1)*kw]
		hash[k] = memoHash(key)
		si := o.shardIndex(key)
		shardOf[k] = uint8(si)
		start[si+1]++
	}
	for si := 1; si < len(start); si++ {
		start[si] += start[si-1]
	}
	order, next := grow(&sc.order, n), start
	for k, si := range shardOf {
		order[next[si]] = int32(k)
		next[si]++
	}

	// Probe. ref[k] is -1 for a hit, k for a miss, and j for a pattern
	// whose key missed at pattern j < k. seen indexes the batch's misses by
	// key hash (pattern + 1, 0 empty, at most half full). A group's misses
	// overwrite the front of its range in order, for the fills.
	size, shift := 2, uint(63)
	for size < 2*n {
		size, shift = 2*size, shift-1
	}
	seen := grow(&sc.seen, size)
	clear(seen)
	mask := size - 1
	resp, ref := grow(&sc.resp, n*ow), grow(&sc.ref, n)
	var nFill [memoShardCount]int32
	var misses int64
	for si := range o.shards {
		group := order[start[si]:start[si+1]:start[si+1]]
		if len(group) == 0 {
			continue
		}
		s := &o.shards[si]
		s.mu.Lock()
		sc.sink += s.warm(group, hash)
		fills := group[:0]
		for _, k := range group {
			key, h := keys[int(k)*kw:int(k+1)*kw], hash[k]
			bk := int(h>>(shift&63)) & mask
			for seen[bk] != 0 && !sameKey(keys[int(seen[bk]-1)*kw:int(seen[bk])*kw], key) {
				bk = (bk + 1) & mask
			}
			if seen[bk] != 0 {
				ref[k] = seen[bk] - 1
				continue
			}
			if _, slot := s.find(key, h, stride); slot >= 0 {
				s.touch(slot)
				copy(resp[int(k)*ow:int(k+1)*ow], s.slot(slot, stride)[kw:])
				ref[k] = -1
				continue
			}
			seen[bk] = k + 1
			ref[k] = k
			fills = append(fills, k)
		}
		s.mu.Unlock()
		nFill[si] = int32(len(fills))
		misses += int64(len(fills))
	}
	o.hits.Add(int64(n) - misses)
	o.misses.Add(misses)

	if nMiss := int(misses); nMiss > 0 {
		// Number the misses in pattern order; ref becomes each pattern's
		// miss number (-1 on a hit).
		missKeys := grow(&sc.missKeys, nMiss*kw)
		var m int32
		for k, r := range ref {
			switch {
			case r == int32(k):
				copy(missKeys[int(m)*kw:int(m+1)*kw], keys[k*kw:(k+1)*kw])
				ref[k] = m
				m++
			case r >= 0:
				ref[k] = ref[r]
			}
		}
		missResp := o.evalMisses(sc, missKeys, nMiss)

		inserted := grow(&sc.inserted, nMiss)
		var evictions int64
		for si := range o.shards {
			fills := order[start[si] : start[si]+nFill[si]]
			if len(fills) == 0 {
				continue
			}
			s := &o.shards[si]
			s.mu.Lock()
			sc.sink += s.warm(fills, hash)
			if room := int(s.limit - s.n); len(fills) > room {
				sc.sink += s.warmVictims(len(fills)-room, kw, stride)
			}
			for _, k := range fills {
				m := ref[k]
				var evicted bool
				inserted[m], evicted = s.add(keys[int(k)*kw:int(k+1)*kw], missResp[int(m)*ow:int(m+1)*ow], hash[k], stride)
				if evicted {
					evictions++
				}
			}
			s.mu.Unlock()
		}
		o.evictions.Add(evictions)
		if hook := o.currentHook(); hook != nil {
			for m := 0; m < nMiss; m++ {
				if inserted[m] {
					hook.MemoInsert(o.keyString(missKeys[m*kw:(m+1)*kw]), o.bools(missResp[m*ow:(m+1)*ow]))
				}
			}
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
	memoScratchPool.Put(sc)
	return out
}

// warm loads the index bucket that each pattern of group hashes to, the
// first word a probe or fill of its key reads, and returns their sum so the
// loads are kept. The caller holds s.mu.
//
//logicreg:hotpath
func (s *memoShard) warm(group []int32, hash []uint64) uint64 {
	mask := len(s.index) - 1
	var sum uint64
	for _, k := range group {
		sum += s.index[int(hash[k]>>(s.shift&63))&mask]
	}
	return sum
}

// warmVictims loads the key words and index buckets of the shard's n least
// recently used entries, the next n that a full shard evicts, and returns
// the buckets' sum so the loads are kept. Only the walk down the LRU links
// waits on its loads. The caller holds s.mu.
//
//logicreg:hotpath
func (s *memoShard) warmVictims(n, kw, stride int) uint64 {
	mask := len(s.index) - 1
	var sum uint64
	for v := s.tail; v >= 0 && n > 0; v, n = s.link(v).prev, n-1 {
		sum += s.index[int(memoHash(s.slot(v, stride)[:kw])>>(s.shift&63))&mask]
	}
	return sum
}

// memoScratch is one EvalBatch call's working memory. It comes from
// memoScratchPool and goes back there when the call returns, so a learn's
// batches reuse it; each buffer is resized to the batch and the memo's key
// and response widths.
type memoScratch struct {
	keys, resp []bitvec.Word // pattern k's key row at k*kw, response row at k*ow
	hash       []uint64      // pattern k's memoHash
	shardOf    []uint8       // pattern k's shard
	order      []int32       // the patterns grouped by shard
	ref, seen  []int32       // see EvalBatch
	missKeys   []bitvec.Word // the misses' key rows, in miss order
	lanes      []bitvec.Word // the inner batch
	missResp   []bitvec.Word // the inner batch's response rows
	inserted   []bool        // per miss: whether its fill inserted it
	sink       uint64        // the warm loads' sum, stored so they are not dead code
}

var memoScratchPool = sync.Pool{New: func() any { return new(memoScratch) }}

// grow resizes *buf to n elements, reallocating only when it is too short,
// and returns it. The contents are not cleared.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// evalMisses asks the inner oracle for the nMiss key rows of missKeys as
// one batch and returns the response rows in the same order, in sc.
func (o *Memo) evalMisses(sc *memoScratch, missKeys []bitvec.Word, nMiss int) []bitvec.Word {
	kw, ow := o.kw, o.ow
	mw := Words(nMiss)
	lanes := grow(&sc.lanes, o.nIn*mw)
	clear(lanes)
	for b := 0; b < mw; b++ {
		bitvec.RowsToLanes(lanes, mw, o.nIn, b, missKeys[64*b*kw:min(nMiss, 64*b+64)*kw])
	}
	res := AsBatch(o.inner).EvalBatch(lanes, nMiss)
	rows := grow(&sc.missResp, nMiss*ow)
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
		total += int(s.n)
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
