package store

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

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
}

// Store is the persistence layer: a memo log and a circuit store sharing
// one directory. It implements oracle.MemoHook, so attaching it to a memo
// persists every cache fill write-through; a disk failure flips the store
// to degraded (memory-only) mode and the learn proceeds untouched — the
// hook never returns an error to the oracle path and never panics.
type Store struct {
	memo     *memoLog
	circuits *circuitStore
	recovery RecoveryInfo

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
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", cfg.Dir, err)
	}
	s := &Store{}
	ml, err := openMemoLog(fsys, cfg.Dir, &s.recovery)
	if err != nil {
		return nil, err
	}
	cs, err := openCircuitStore(fsys, cfg.Dir, &s.recovery)
	if err != nil {
		ml.close()
		return nil, err
	}
	s.memo, s.circuits = ml, cs
	return s, nil
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
func (s *Store) MemoInsert(key string, out []bool) {
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
// persistence hook. Returns the number of entries preloaded. Attach before
// the memo's first query: the hook persists only the fills that follow it.
// Preloading cannot change a learn's result — every logged answer came
// from the same deterministic oracle — it only converts misses into hits.
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
// transcript (oracle.Recorder format, read by oracle.TranscriptReader) to
// the memo log, making replay captures an importable warm-start corpus.
// When want is non-zero the transcript's header must match it — importing
// answers from a different oracle would poison the cache with wrong
// values. Entries import in file order. Returns the number of pairs
// imported.
func (s *Store) ImportTranscript(r io.Reader, want oracle.Identity) (int, error) {
	tr, err := oracle.NewTranscriptReader(r)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if !want.IsZero() && !tr.Identity.Equal(want) {
		return 0, fmt.Errorf("store: transcript is from a different oracle: %v != %v", tr.Identity, want)
	}
	for count := 0; ; count++ {
		in, out, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return count, nil
		}
		if err != nil {
			return count, fmt.Errorf("store: %w", err)
		}
		if err := s.memo.append(oracle.MemoKey(in), out); err != nil {
			return count, err
		}
	}
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
	return fmt.Sprintf("v2|%s|seed=%d|%s", k.Identity.Hash(), k.Seed, k.Options)
}

// OptionsSig renders the result-determining fields of core.Options into a
// stable string for LearnKey.Options. Fields that cannot change a whole
// learn's circuit (Progress, Cancel, MemoizeQueries — all documented
// byte-identity-preserving) are excluded, so e.g. a cancelled-capable run
// still hits the cache of a plain one. TimeLimit is excluded too: it
// changes only where a learn stops, and Storable keeps a learn that had one
// out of the store. Parallel > 1 takes the parallel learn path, whose
// per-output generators give other netlists than the sequential path (the
// same ones for every worker count), so it appends ",par=1"; a sequential
// key carries no suffix.
func OptionsSig(o core.Options) string {
	sig := fmt.Sprintf(
		"sr=%d,tr=%d,eps=%g,ex=%d,max=%d,ratios=%v,nopre=%t,noopt=%t,hc=%t,ao=%t,df=%t,xt=%t,rr=%d,tmpl=%+v",
		o.SupportR, o.TreeR, o.LeafEpsilon, o.ExhaustiveThreshold, o.MaxTreeNodes,
		o.Ratios, o.DisablePreprocessing, o.DisableOptimization, o.HiddenCompression,
		o.AlwaysOnset, o.DepthFirstTree, o.ExtendedTemplates, o.RefineRounds,
		o.Template)
	if o.Parallel > 1 {
		sig += ",par=1"
	}
	return sig
}

// Storable reports whether a learn's result may be stored under its learn
// key: only a whole learn is the key's answer. A degraded or canceled learn
// leaves a partial circuit, and a learn with a time limit may have been cut
// short by its deadline — the key leaves TimeLimit out, so storing its
// circuit would hand a truncated result to an unlimited learn.
func Storable(opts core.Options, res *core.Result) bool {
	return res != nil && res.Circuit != nil && !res.Degraded && !res.Canceled && opts.TimeLimit <= 0
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
	// MemoLogBytes is the on-disk size of the memo log.
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
	st := Stats{
		MemoEntries:  len(s.memo.live),
		MemoLogBytes: s.memo.log.size,
		Appends:      s.memo.appends,
		Syncs:        s.memo.syncs,
		Compactions:  s.memo.compactions,
	}
	s.memo.mu.Unlock()
	st.Circuits = s.circuits.entryCount()
	st.HookWrites = s.hookWrites.Load()
	st.Dropped = s.dropped.Load()
	st.Degraded = s.degraded.Load()
	return st
}

// Close syncs pending appends and releases file handles. Detach the store
// from any live memo (SetHook(nil)) before closing.
func (s *Store) Close() error {
	err := s.memo.close()
	if cerr := s.circuits.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

var _ oracle.MemoHook = (*Store)(nil)
