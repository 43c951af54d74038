package store

// The memo log: an append-only record of every (assignment, response) pair
// an oracle memo has answered, in the single file memo-000001.log.
// Replaying it into a fresh memo before a learn converts cold misses into
// hits; because the oracle is deterministic, the learn's result is
// byte-identical either way. Compaction rewrites the file in place with the
// deduplicated live entries (recordLog.rewrite), so a reader at any crash
// point sees the old file or the compacted one — replay is last-wins and
// idempotent, never wrong.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path"
	"slices"
	"sync"

	"logicregression/internal/vfs"
)

// memoEntryTag types a memo-log payload, leaving room for future record
// kinds in the same framing.
const memoEntryTag = 'm'

// encodeMemoEntry packs one cache entry: tag, uvarint key length, raw key
// bytes (the memo's packed-assignment key), uvarint output bit count, and
// the output bits packed LSB-first.
func encodeMemoEntry(key string, out []bool) []byte {
	buf := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(key)+(len(out)+7)/8)
	buf = append(buf, memoEntryTag)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(out)))
	packed := make([]byte, (len(out)+7)/8)
	for i, b := range out {
		if b {
			packed[i>>3] |= 1 << uint(i&7)
		}
	}
	return append(buf, packed...)
}

// decodeMemoEntry is the inverse of encodeMemoEntry.
func decodeMemoEntry(p []byte) (key string, out []bool, err error) {
	if len(p) == 0 || p[0] != memoEntryTag {
		return "", nil, fmt.Errorf("store: memo entry has bad tag")
	}
	p = p[1:]
	klen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < klen {
		return "", nil, fmt.Errorf("store: memo entry key length overruns payload")
	}
	key = string(p[n : n+int(klen)])
	p = p[n+int(klen):]
	bits, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < (bits+7)/8 {
		return "", nil, fmt.Errorf("store: memo entry bit count overruns payload")
	}
	packed := p[n:]
	out = make([]bool, bits)
	for i := range out {
		out[i] = packed[i>>3]&(1<<uint(i&7)) != 0
	}
	return key, out, nil
}

const (
	// memoLogName is the memo log's file in the store directory.
	memoLogName = "memo-000001.log"
	// memoSyncEvery is the group-commit batch: the memo log fsyncs once per
	// this many appends, besides around a compaction and on close.
	memoSyncEvery = 1024
	// memoCompactAt is the log size in bytes past which an append first
	// compacts the log.
	memoCompactAt = 16 << 20
)

// memoLog is the memo's record log with its live entries. All access is
// under mu.
type memoLog struct {
	mu      sync.Mutex
	log     *recordLog
	pending int // appends not yet fsynced
	closed  bool

	// live is the current value per key; order is first-seen key order, the
	// deterministic iteration sequence for compaction (map iteration order
	// must never reach the disk).
	live  map[string][]bool
	order []string

	// compactAt is the log size past which an append compacts: at first
	// memoCompactAt (in-package tests lower it), then at least twice the
	// size of the last rewrite.
	compactAt int64

	appends     int64
	syncs       int64
	compactions int64
}

// openMemoLog replays the memo log in dir and opens it for appends. A
// temp file left by a compaction the last process did not finish is
// removed: the log it was to replace is still whole.
func openMemoLog(fsys vfs.FS, dir string, info *RecoveryInfo) (*memoLog, error) {
	name := path.Join(dir, memoLogName)
	fsys.Remove(name + ".tmp")
	l := &memoLog{live: make(map[string][]bool), compactAt: memoCompactAt}
	lg, err := openLog(fsys, name, info, func(payload []byte) error {
		key, out, err := decodeMemoEntry(payload)
		if err == nil {
			l.insertLive(key, out)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	l.log = lg
	info.Entries = len(l.live)
	return l, nil
}

// insertLive records the latest value for a key, preserving first-seen
// order for deterministic compaction.
func (l *memoLog) insertLive(key string, out []bool) {
	if _, seen := l.live[key]; !seen {
		l.order = append(l.order, key)
	}
	l.live[key] = out
}

// append writes one entry at once and applies the commit policy: a full
// batch is fsynced, and a log past compactAt is compacted.
func (l *memoLog) append(key string, out []bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("store: memo log closed")
	}
	if cur, seen := l.live[key]; seen && slices.Equal(cur, out) {
		return nil // already logged with the same value
	}
	if err := l.log.append(encodeMemoEntry(key, out)); err != nil {
		return err
	}
	l.insertLive(key, out)
	l.appends++
	l.pending++
	switch {
	case l.log.size > l.compactAt:
		return l.compactLocked()
	case l.pending >= memoSyncEvery:
		return l.syncLocked()
	}
	return nil
}

func (l *memoLog) syncLocked() error {
	if l.pending == 0 {
		return nil
	}
	if err := l.log.sync(); err != nil {
		return err
	}
	l.pending = 0
	l.syncs++
	return nil
}

// compactLocked rewrites the log as one record per live entry, in
// first-seen order. The rewrite fsyncs the new file, which holds every
// pending append. The next compaction waits until the log has doubled, so
// a live set past the threshold does not make every append rewrite it.
func (l *memoLog) compactLocked() error {
	var buf []byte
	for _, key := range l.order {
		buf = appendRecord(buf, encodeMemoEntry(key, l.live[key]))
	}
	if err := l.log.rewrite(buf); err != nil {
		return err
	}
	l.pending = 0
	l.compactions++
	l.compactAt = max(l.compactAt, 2*l.log.size)
	return nil
}

// each visits the live entries in first-seen order.
func (l *memoLog) each(fn func(key string, out []bool)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, key := range l.order {
		fn(key, l.live[key])
	}
}

// close syncs pending appends and releases the file.
func (l *memoLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.log.close(); err == nil {
		err = cerr
	}
	return err
}
