package store

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"logicregression/internal/bitvec"
	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/oracle"
	"logicregression/internal/vfs"
)

// Config opens a Store.
type Config struct {
	// Dir is the store's root directory.
	Dir string
	// FS is the filesystem to write through; nil means the real OS
	// filesystem. Tests substitute vfs.MemFS or a chaos.FaultFS.
	FS vfs.FS
	// SyncEvery is the group-commit batch: memo-log appends accumulate
	// until this many are pending, then one fsync covers them all. Values
	// <= 1 fsync every append (the safest and slowest policy).
	SyncEvery int
	// FlushInterval bounds how long a pending append can wait for its
	// group fsync. Zero means the 100ms default; negative disables the
	// background flusher (batches then sync only when full or on Close).
	FlushInterval time.Duration
	// CompactAt triggers memo-log compaction when the segments exceed this
	// many bytes. Zero means the 16 MiB default; negative disables
	// compaction.
	CompactAt int64
}

const (
	defaultFlushInterval = 100 * time.Millisecond
	defaultCompactAt     = 16 << 20
)

// Store is the persistence layer: a memo log and a circuit store sharing
// one directory. It implements oracle.MemoHook, so attaching it to a memo
// persists every cache fill write-through; a disk failure flips the store
// to degraded (memory-only) mode and the learn proceeds untouched — the
// hook never returns an error to the oracle path and never panics.
type Store struct {
	fs       vfs.FS
	dir      string
	memo     *memoLog
	circuits *circuitStore
	recovery RecoveryInfo

	done      chan struct{}
	flusherWG sync.WaitGroup

	hookWrites atomic.Int64
	dropped    atomic.Int64
	degraded   atomic.Bool

	errMu    sync.Mutex
	firstErr error
}

// Open opens (or creates) a store rooted at cfg.Dir, replaying the memo
// log and circuit index. Recovery repairs torn tails silently (they are
// the normal residue of a crash) and reports mid-file corruption via
// Recovery().Corrupt — opening still succeeds with the valid prefix.
func Open(cfg Config) (*Store, error) {
	fsys := cfg.FS
	if fsys == nil {
		fsys = vfs.OS{}
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: Config.Dir is required")
	}
	flushInterval := cfg.FlushInterval
	if flushInterval == 0 {
		flushInterval = defaultFlushInterval
	}
	compactAt := cfg.CompactAt
	if compactAt == 0 {
		compactAt = defaultCompactAt
	}
	if compactAt < 0 {
		compactAt = 0 // memoLog treats 0 as "never"
	}

	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", cfg.Dir, err)
	}
	ml, info, err := openMemoLog(fsys, cfg.Dir, cfg.SyncEvery, compactAt)
	if err != nil {
		return nil, err
	}
	cs, err := openCircuitStore(fsys, cfg.Dir, &info)
	if err != nil {
		ml.close()
		return nil, err
	}
	s := &Store{
		fs:       fsys,
		dir:      cfg.Dir,
		memo:     ml,
		circuits: cs,
		recovery: info,
		done:     make(chan struct{}),
	}
	if flushInterval > 0 {
		s.flusherWG.Add(1)
		go s.flusher(flushInterval)
	}
	return s, nil
}

// flusher is the group-commit clock: every interval it fsyncs whatever
// appends are pending, bounding the window a crash can tear.
func (s *Store) flusher(interval time.Duration) {
	defer s.flusherWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			if err := s.memo.flushPending(); err != nil {
				s.degrade(err)
			}
		}
	}
}

// Recovery reports what opening the store found on disk.
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// Degraded reports whether a storage fault has switched the store to
// memory-only mode (appends dropped, learns unaffected).
func (s *Store) Degraded() bool { return s.degraded.Load() }

// Err returns the first storage error that degraded the store, if any.
func (s *Store) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

func (s *Store) degrade(err error) {
	s.errMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.errMu.Unlock()
	s.degraded.Store(true)
}

// MemoInsert implements oracle.MemoHook: write-through persistence of
// every cache fill. Errors degrade the store; they never reach the oracle
// path, so a dying disk cannot fail (or alter) a learn.
func (s *Store) MemoInsert(key string, out []bool) { s.persist(key, out) }

// MemoEvict implements oracle.MemoHook. Evicted entries are re-logged
// defensively: an entry inserted before the hook was attached would
// otherwise leave the cache without ever reaching disk. Duplicates cost
// log bytes only and fold away at compaction.
func (s *Store) MemoEvict(key string, out []bool) { s.persist(key, out) }

func (s *Store) persist(key string, out []bool) {
	if s.degraded.Load() {
		s.dropped.Add(1)
		return
	}
	if err := s.memo.append(key, out); err != nil {
		s.dropped.Add(1)
		s.degrade(err)
		return
	}
	s.hookWrites.Add(1)
}

// AttachMemo warm-starts a memo from the log and installs the store as its
// persistence hook. Returns the number of entries preloaded. Preloading
// cannot change a learn's result — every logged answer came from the same
// deterministic oracle — it only converts misses into hits.
func (s *Store) AttachMemo(m *oracle.Memo) int {
	n := 0
	s.memo.each(func(key string, out []bool) {
		m.Preload(key, out)
		n++
	})
	m.SetHook(s)
	return n
}

// ImportTranscript appends every query/response pair of a recorded oracle
// transcript (oracle.Recorder format) to the memo log, making replay
// captures an importable warm-start corpus. When want is non-zero the
// transcript's header must match it — importing answers from a different
// oracle would poison the cache with wrong values. Entries import in file
// order. Returns the number of pairs imported.
func (s *Store) ImportTranscript(r io.Reader, want oracle.Identity) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	readHeader := func(keyword string) ([]string, error) {
		if !sc.Scan() {
			return nil, fmt.Errorf("store: transcript missing %q header", keyword)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 1 || fields[0] != keyword {
			return nil, fmt.Errorf("store: expected %q header, got %q", keyword, sc.Text())
		}
		return fields[1:], nil
	}
	ins, err := readHeader("inputs")
	if err != nil {
		return 0, err
	}
	outs, err := readHeader("outputs")
	if err != nil {
		return 0, err
	}
	got := oracle.Identity{Ins: ins, Outs: outs}
	if !want.IsZero() && !got.Equal(want) {
		return 0, fmt.Errorf("store: transcript is from a different oracle: %v != %v", got, want)
	}
	row := make([]bitvec.Word, bitvec.RowWords(max(len(ins), len(outs))))
	in := make([]bool, len(ins))
	count := 0
	lineNo := 2
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		fields := bytes.Fields(line)
		if len(fields) != 2 || len(fields[0]) != len(ins) || len(fields[1]) != len(outs) {
			return count, fmt.Errorf("store: transcript line %d malformed: %q", lineNo, line)
		}
		if i := bitvec.ParseRow(row, fields[0]); i >= 0 {
			return count, fmt.Errorf("store: transcript line %d: bad bit %q", lineNo, fields[0][i])
		}
		bitvec.UnpackBools(in, row)
		if i := bitvec.ParseRow(row, fields[1]); i >= 0 {
			return count, fmt.Errorf("store: transcript line %d: bad bit %q", lineNo, fields[1][i])
		}
		out := make([]bool, len(outs)) // the memo log keeps it
		bitvec.UnpackBools(out, row)
		if err := s.memo.append(oracle.MemoKey(in), out); err != nil {
			return count, err
		}
		count++
	}
	if err := sc.Err(); err != nil {
		return count, err
	}
	return count, nil
}

// LearnKey identifies a learned circuit: which oracle (identity), which
// seed, and which options. Two learns with equal keys produce identical
// circuits, so the key is safe to use as a warm-start cache address.
type LearnKey struct {
	Identity oracle.Identity
	Seed     int64
	Options  string
}

// String renders the canonical key the circuit index stores.
func (k LearnKey) String() string {
	return fmt.Sprintf("v1|%s|seed=%d|%s", k.Identity.Hash(), k.Seed, k.Options)
}

// OptionsSig renders the result-determining fields of core.Options into a
// stable string for LearnKey.Options. Fields that cannot change the learned
// circuit (Progress, Cancel, MemoizeQueries — all documented
// byte-identity-preserving) are excluded, so e.g. a cancelled-capable run
// still hits the cache of a plain one. Parallel > 1 takes the parallel
// learn path, whose per-output generators give other netlists than the
// sequential path (the same ones for every worker count), so it appends
// ",par=1"; a sequential key carries no suffix and stays byte-identical to
// the keys existing stores hold.
func OptionsSig(o core.Options) string {
	sig := fmt.Sprintf(
		"sr=%d,tr=%d,eps=%g,ex=%d,max=%d,ratios=%v,nopre=%t,noopt=%t,hc=%t,ao=%t,df=%t,xt=%t,rr=%d,rp=%d,tmpl=%+v,opt=%+v",
		o.SupportR, o.TreeR, o.LeafEpsilon, o.ExhaustiveThreshold, o.MaxTreeNodes,
		o.Ratios, o.DisablePreprocessing, o.DisableOptimization, o.HiddenCompression,
		o.AlwaysOnset, o.DepthFirstTree, o.ExtendedTemplates, o.RefineRounds,
		o.RefinePatterns, o.Template, o.Opt)
	if o.Parallel > 1 {
		sig += ",par=1"
	}
	return sig
}

// PutCircuit stores a learned circuit under its learn key.
func (s *Store) PutCircuit(k LearnKey, c *circuit.Circuit) error {
	return s.circuits.put(k.String(), c)
}

// GetCircuit loads the circuit stored under k. A miss returns (nil, nil);
// a blob that fails its content hash returns ErrCorruptBlob — never a
// silently wrong circuit.
func (s *Store) GetCircuit(k LearnKey) (*circuit.Circuit, error) {
	return s.circuits.get(k.String())
}

// Stats is a point-in-time snapshot of store health.
type Stats struct {
	// MemoEntries is the live (deduplicated) memo-log entry count.
	MemoEntries int
	// MemoLogBytes is the on-disk size of the memo-log segments.
	MemoLogBytes int64
	// Appends / Syncs / Compactions count memo-log operations.
	Appends     int64
	Syncs       int64
	Compactions int64
	// Circuits is the number of learn keys in the circuit index.
	Circuits int
	// HookWrites counts memo entries persisted via the hook; Dropped
	// counts entries lost to degraded mode.
	HookWrites int64
	Dropped    int64
	// Degraded reports memory-only fallback after a storage fault.
	Degraded bool
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.memo.mu.Lock()
	appends, syncs, compactions := s.memo.appends, s.memo.syncs, s.memo.compactions
	s.memo.mu.Unlock()
	return Stats{
		MemoEntries:  s.memo.entryCount(),
		MemoLogBytes: s.memo.size(),
		Appends:      appends,
		Syncs:        syncs,
		Compactions:  compactions,
		Circuits:     s.circuits.entryCount(),
		HookWrites:   s.hookWrites.Load(),
		Dropped:      s.dropped.Load(),
		Degraded:     s.degraded.Load(),
	}
}

// Close stops the flusher, syncs pending appends, and releases file
// handles. Detach the store from any live memo (SetHook(nil)) before
// closing.
func (s *Store) Close() error {
	close(s.done)
	s.flusherWG.Wait()
	err := s.memo.close()
	if cerr := s.circuits.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

var _ oracle.MemoHook = (*Store)(nil)
