package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/oracle"
	"logicregression/internal/vfs"
)

// openStore opens the store in directory "st" of fsys.
func openStore(t *testing.T, fsys vfs.FS) *Store {
	t.Helper()
	s, err := Open(Config{Dir: "st", FS: fsys})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func bits(s string) []bool {
	out := make([]bool, len(s))
	for i := range s {
		out[i] = s[i] == '1'
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	payloads := [][]byte{{}, []byte("a"), bytes.Repeat([]byte{0xAB}, 300)}
	var buf []byte
	for _, p := range payloads {
		buf = appendRecord(buf, p)
	}
	sc := recordScanner{data: buf}
	for i, want := range payloads {
		got, err := sc.next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d = %x, want %x", i, got, want)
		}
	}
	if _, err := sc.next(); err != io.EOF {
		t.Fatalf("end err = %v, want io.EOF", err)
	}
}

// TestRecordEveryByteCorruption flips every byte of a framed stream in
// turn and checks the scanner never accepts the damaged record.
func TestRecordEveryByteCorruption(t *testing.T) {
	payload := []byte("the quick brown fox")
	clean := appendRecord(nil, payload)
	for i := range clean {
		dirty := append([]byte(nil), clean...)
		dirty[i] ^= 0x40
		sc := recordScanner{data: dirty}
		got, err := sc.next()
		if err == nil && bytes.Equal(got, payload) {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

func TestMemoLogAppendReopen(t *testing.T) {
	mem := vfs.NewMemFS()
	s := openStore(t, mem)
	entries := map[string][]bool{}
	for i := 0; i < 20; i++ {
		key := oracle.MemoKey(bits(fmt.Sprintf("%05b", i)))
		out := bits(fmt.Sprintf("%03b", i%8))
		entries[key] = out
		if err := s.memo.append(key, out); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2 := openStore(t, mem)
	defer s2.Close()
	info := s2.Recovery()
	if info.Corrupt || info.TruncatedBytes != 0 {
		t.Fatalf("clean reopen reported damage: %+v", info)
	}
	if info.Entries != len(entries) || info.Records != 20 {
		t.Fatalf("recovered %d entries / %d records, want %d / 20", info.Entries, info.Records, len(entries))
	}
	got := map[string][]bool{}
	s2.memo.each(func(k string, v []bool) { got[k] = v })
	for k, want := range entries {
		if !slices.Equal(got[k], want) {
			t.Fatalf("entry %x = %v, want %v", k, got[k], want)
		}
	}
}

// TestMemoLogTornTail chops the log mid-record and verifies reopen
// recovers the full-record prefix, repairs the file, and does NOT flag
// corruption — a torn tail is the expected residue of a crash.
func TestMemoLogTornTail(t *testing.T) {
	mem := vfs.NewMemFS()
	s := openStore(t, mem)
	for i := 0; i < 5; i++ {
		s.memo.append(oracle.MemoKey(bits(fmt.Sprintf("%04b", i))), bits("1"))
	}
	s.Close()

	name := "st/" + memoLogName
	full := mem.Snapshot(name)
	// Cut inside the final record.
	cut := int64(len(full) - 3)
	f, _ := mem.OpenFile(name, os.O_RDWR, 0o644)
	f.Truncate(cut)
	f.Close()

	s2 := openStore(t, mem)
	defer s2.Close()
	info := s2.Recovery()
	if info.Corrupt {
		t.Fatalf("torn tail misreported as corruption: %+v", info)
	}
	if info.Entries != 4 {
		t.Fatalf("recovered %d entries, want 4", info.Entries)
	}
	if info.TruncatedBytes == 0 {
		t.Fatal("no truncation reported for a torn tail")
	}
	if got := mem.Snapshot(name); int64(len(got)) >= cut {
		t.Fatalf("tail not repaired: %d bytes left", len(got))
	}
}

// TestMemoLogMidFileCorruption rots a byte in the middle of the log.
// Recovery must keep the prefix before the damage and report the loss —
// valid records after a corrupt region are evidence this was not a torn
// tail, and silently resynchronizing past it is forbidden.
func TestMemoLogMidFileCorruption(t *testing.T) {
	mem := vfs.NewMemFS()
	s := openStore(t, mem)
	for i := 0; i < 6; i++ {
		s.memo.append(oracle.MemoKey(bits(fmt.Sprintf("%04b", i))), bits("1"))
	}
	s.Close()

	name := "st/" + memoLogName
	full := mem.Snapshot(name)
	recLen := len(full) / 6
	// Rot a payload byte inside record 2 (0-based).
	if err := mem.Patch(name, int64(2*recLen+recordHeaderSize), 0xFF); err != nil {
		t.Fatalf("patch: %v", err)
	}

	s2 := openStore(t, mem)
	defer s2.Close()
	info := s2.Recovery()
	if !info.Corrupt {
		t.Fatalf("mid-file rot not reported: %+v", info)
	}
	if info.Entries != 2 {
		t.Fatalf("recovered %d entries, want the 2 before the damage", info.Entries)
	}
}

func TestMemoLogCompaction(t *testing.T) {
	mem := vfs.NewMemFS()
	s := openStore(t, mem)
	s.memo.compactAt = 600
	// Re-append the same 4 keys with alternating values so every append
	// writes bytes; the live set stays at 4 entries.
	keys := make([]string, 4)
	for i := range keys {
		keys[i] = oracle.MemoKey(bits(fmt.Sprintf("%03b", i)))
	}
	for round := 0; round < 40; round++ {
		for _, k := range keys {
			if err := s.memo.append(k, []bool{round%2 == 0}); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %d appends over a %d-byte threshold", st.Appends, 600)
	}
	if st.MemoEntries != 4 {
		t.Fatalf("live entries = %d, want 4", st.MemoEntries)
	}
	if st.MemoLogBytes > 600 {
		t.Fatalf("log still %d bytes after compaction", st.MemoLogBytes)
	}
	// The log was rewritten in place: one file, no temp file left.
	if got := int64(len(mem.Snapshot("st/" + memoLogName))); got != st.MemoLogBytes {
		t.Fatalf("%s holds %d bytes, want %d", memoLogName, got, st.MemoLogBytes)
	}
	if _, err := mem.Stat("st/" + memoLogName + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("compaction left its temp file behind: %v", err)
	}
	s.Close()

	// A temp file from a compaction that never finished is removed on
	// open, and the compacted log replays to the same live set.
	f, err := mem.OpenFile("st/"+memoLogName+".tmp", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("half a rewrite"))
	f.Close()
	s2 := openStore(t, mem)
	defer s2.Close()
	if _, err := mem.Stat("st/" + memoLogName + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open kept a stale compaction temp file: %v", err)
	}
	if got := s2.Stats().MemoEntries; got != 4 {
		t.Fatalf("entries after reopen = %d, want 4", got)
	}
	for _, k := range keys {
		if !slices.Equal(s2.memo.live[k], []bool{false}) {
			t.Fatalf("key %x lost its last-written value", k)
		}
	}
}

// TestCompactionBacksOff: once the live set outgrows the threshold, a
// compaction cannot shrink the log below it, so the next one must wait
// for the log to double instead of rewriting it on every append.
func TestCompactionBacksOff(t *testing.T) {
	mem := vfs.NewMemFS()
	s := openStore(t, mem)
	s.memo.compactAt = 200
	const n = 400 // distinct keys: about 6,800 live bytes
	for i := 0; i < n; i++ {
		if err := s.memo.append(oracle.MemoKey(bits(fmt.Sprintf("%09b", i))), bits("1")); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 || st.Compactions > 8 {
		t.Fatalf("%d compactions for %d appends of distinct keys, want a handful", st.Compactions, n)
	}
	s.Close()
	s2 := openStore(t, mem)
	defer s2.Close()
	if got := s2.Stats().MemoEntries; got != n {
		t.Fatalf("entries after reopen = %d, want %d", got, n)
	}
}

// syncCounter counts the Sync calls made on each file name.
type syncCounter struct {
	vfs.FS
	mu    sync.Mutex
	syncs map[string]int
}

type countedFile struct {
	vfs.File
	name string
	c    *syncCounter
}

func (c *syncCounter) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countedFile{f, name, c}, nil
}

func (f countedFile) Sync() error {
	f.c.mu.Lock()
	f.c.syncs[f.name]++
	f.c.mu.Unlock()
	return f.File.Sync()
}

// TestGroupCommitSyncCount: appends through the store's hook are fsynced
// in groups of memoSyncEvery, and Close syncs the rest — never one fsync
// per append.
func TestGroupCommitSyncCount(t *testing.T) {
	const n = 5000
	counter := &syncCounter{FS: vfs.NewMemFS(), syncs: map[string]int{}}
	s := openStore(t, counter)
	for i := 0; i < n; i++ {
		s.MemoInsert(oracle.MemoKey(bits(fmt.Sprintf("%013b", i))), bits("1"))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.HookWrites != n || st.Degraded {
		t.Fatalf("stats = %+v, want %d hook writes", st, n)
	}
	got := counter.syncs["st/"+memoLogName]
	if limit := (n+memoSyncEvery-1)/memoSyncEvery + 1; got > limit {
		t.Fatalf("memo log fsynced %d times for %d appends, want at most %d", got, n, limit)
	}
	if got == 0 {
		t.Fatal("memo log never fsynced")
	}
}

func TestStoreDegradesOnSyncFault(t *testing.T) {
	s := openStore(t, newAlwaysFailSync(vfs.NewMemFS()))
	defer s.Close()
	// The hook must absorb the failure of the first group fsync: no error,
	// no panic, store degraded.
	for i := 0; i < memoSyncEvery; i++ {
		s.MemoInsert(oracle.MemoKey(bits(fmt.Sprintf("%011b", i))), bits("1"))
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after fsync failure")
	}
	if s.Err() == nil {
		t.Fatal("degraded store lost its first error")
	}
	// Later hook calls are dropped, counted, and still harmless.
	s.MemoInsert(oracle.MemoKey(bits("11111111111")), bits("1"))
	if st := s.Stats(); st.Dropped == 0 || !st.Degraded {
		t.Fatalf("stats = %+v, want drops in degraded mode", st)
	}
}

// alwaysFailSync makes every file fsync fail while leaving data writes
// intact — the "disk lies about durability" failure.
type alwaysFailSync struct{ vfs.FS }

type failSyncFile struct{ vfs.File }

func newAlwaysFailSync(inner vfs.FS) vfs.FS { return alwaysFailSync{inner} }

func (a alwaysFailSync) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := a.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return failSyncFile{f}, nil
}

func (failSyncFile) Sync() error { return errors.New("injected: sync always fails") }

func TestCircuitStoreRoundTrip(t *testing.T) {
	mem := vfs.NewMemFS()
	s := openStore(t, mem)
	defer s.Close()

	c := circuit.New()
	a, b := c.AddPI("a"), c.AddPI("b")
	c.AddPO("z", c.Xor(a, b))
	ident := oracle.IdentityOf(oracle.FromCircuit(c))
	key := LearnKey{Identity: ident, Seed: 3, Options: "o"}

	if got, err := s.GetCircuit(key); got != nil || err != nil {
		t.Fatalf("miss = (%v, %v), want (nil, nil)", got, err)
	}
	if err := s.PutCircuit(key, c); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := s.GetCircuit(key)
	if err != nil || got == nil {
		t.Fatalf("get: (%v, %v)", got, err)
	}
	var want, have strings.Builder
	circuit.WriteNetlist(&want, c)
	circuit.WriteNetlist(&have, got)
	if want.String() != have.String() {
		t.Fatal("round-tripped circuit differs")
	}

	// The same circuit under a second key shares one blob, named by the
	// SHA-256 of its netlist.
	key2 := LearnKey{Identity: ident, Seed: 4, Options: "o"}
	if err := s.PutCircuit(key2, c); err != nil {
		t.Fatalf("put 2: %v", err)
	}
	sum := sha256.Sum256([]byte(want.String()))
	blob := hex.EncodeToString(sum[:])
	if h1, h2 := s.circuits.byKey[key.String()], s.circuits.byKey[key2.String()]; h1 != blob || h2 != blob {
		t.Fatalf("keys map to blobs %s and %s, want both %s (content addressing dedups)", h1, h2, blob)
	}
	if _, err := mem.Stat("st/objects/" + blob); err != nil {
		t.Fatalf("blob %s: %v", blob, err)
	}
	if st := s.Stats(); st.Circuits != 2 {
		t.Fatalf("indexed circuits = %d, want 2", st.Circuits)
	}
}

// TestParallelLearnKeyMissesSequential: a Parallel > 1 learn builds its
// own netlist, so the circuit it stores must not answer the sequential
// key, while sequential keys stay what they always were.
func TestParallelLearnKeyMissesSequential(t *testing.T) {
	s := openStore(t, vfs.NewMemFS())
	defer s.Close()

	box := circuit.New()
	a, b, c := box.AddPI("a"), box.AddPI("b"), box.AddPI("c")
	box.AddPO("x", box.Xor(a, b))
	box.AddPO("y", box.And(b, c))
	o := oracle.FromCircuit(box)
	ident := oracle.IdentityOf(o)

	par := core.Options{Seed: 5, Parallel: 2}
	parKey := LearnKey{Identity: ident, Seed: par.Seed, Options: OptionsSig(par)}
	if err := s.PutCircuit(parKey, core.Learn(o, par).Circuit); err != nil {
		t.Fatalf("put: %v", err)
	}

	seq := core.Options{Seed: 5}
	seqKey := LearnKey{Identity: ident, Seed: seq.Seed, Options: OptionsSig(seq)}
	if got, err := s.GetCircuit(seqKey); got != nil || err != nil {
		t.Fatalf("sequential key after a Parallel: 2 learn = (%v, %v), want a miss", got, err)
	}
	if got, err := s.GetCircuit(LearnKey{Identity: ident, Seed: 5, Options: OptionsSig(core.Options{Seed: 5, Parallel: 4})}); got == nil || err != nil {
		t.Fatalf("Parallel: 4 key = (%v, %v), want the Parallel: 2 circuit", got, err)
	}
	if one := OptionsSig(core.Options{Parallel: 1}); one != OptionsSig(core.Options{}) || strings.Contains(one, "par=") {
		t.Fatalf("Parallel: 1 signature %q must equal the sequential one", one)
	}
}

func TestCircuitStoreSurvivesReopenAndCatchesRot(t *testing.T) {
	mem := vfs.NewMemFS()
	s := openStore(t, mem)
	c := circuit.New()
	a, b := c.AddPI("a"), c.AddPI("b")
	c.AddPO("z", c.And(a, b))
	key := LearnKey{Identity: oracle.IdentityOf(oracle.FromCircuit(c)), Seed: 1}
	if err := s.PutCircuit(key, c); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openStore(t, mem)
	defer s2.Close()
	got, err := s2.GetCircuit(key)
	if err != nil || got == nil {
		t.Fatalf("reopen get: (%v, %v)", got, err)
	}

	// Rot one byte of the blob: the content hash must catch it.
	if err := mem.Patch("st/objects/"+s2.circuits.byKey[key.String()], 3, '#'); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.GetCircuit(key); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("rotted blob read err = %v, want ErrCorruptBlob", err)
	}
}

func TestImportTranscript(t *testing.T) {
	box := circuit.New()
	a, b := box.AddPI("a"), box.AddPI("b")
	box.AddPO("z", box.Xor(a, b))
	inner := oracle.FromCircuit(box)

	var transcript bytes.Buffer
	rec, err := oracle.NewRecorder(inner, &transcript)
	if err != nil {
		t.Fatal(err)
	}
	queried := [][]bool{bits("00"), bits("01"), bits("10"), bits("11")}
	for _, q := range queried {
		rec.Eval(q)
	}

	mem := vfs.NewMemFS()
	s := openStore(t, mem)
	defer s.Close()
	want := oracle.IdentityOf(inner)

	// Identity mismatch must refuse the import.
	other := oracle.Identity{Ins: []string{"x", "y"}, Outs: []string{"q"}}
	if _, err := s.ImportTranscript(bytes.NewReader(transcript.Bytes()), other); err == nil {
		t.Fatal("import from a different oracle succeeded")
	}

	n, err := s.ImportTranscript(bytes.NewReader(transcript.Bytes()), want)
	if err != nil || n != 4 {
		t.Fatalf("import = (%d, %v), want (4, nil)", n, err)
	}

	// A memo warm-started from the import answers without the oracle.
	cnt := oracle.NewCounter(inner)
	m := oracle.NewMemo(cnt)
	if got := s.AttachMemo(m); got != 4 {
		t.Fatalf("AttachMemo preloaded %d, want 4", got)
	}
	defer m.SetHook(nil)
	for _, q := range queried {
		wantOut := inner.Eval(q)
		if got := m.Eval(q); !slices.Equal(got, wantOut) {
			t.Fatalf("warm answer for %v = %v, want %v", q, got, wantOut)
		}
	}
	if cnt.Queries() != 0 {
		t.Fatalf("warm-started memo still made %d oracle calls", cnt.Queries())
	}
}

// TestImportTranscriptErrorText pins the import's error messages, which
// the shared row codec must not change.
func TestImportTranscriptErrorText(t *testing.T) {
	s := openStore(t, vfs.NewMemFS())
	defer s.Close()
	for text, want := range map[string]string{
		"inputs a b\noutputs z\n0x 1\n": `store: transcript line 3: bad bit 'x'`,
		"inputs a b\noutputs z\n01 2\n": `store: transcript line 3: bad bit '2'`,
		"inputs a b\noutputs z\n01\n":   `store: transcript line 3 malformed: "01"`,
	} {
		if _, err := s.ImportTranscript(strings.NewReader(text), oracle.Identity{}); err == nil || err.Error() != want {
			t.Errorf("import of %q: error %v, want %q", text, err, want)
		}
	}
}

// TestStorable: only a whole learn without a time limit may be stored
// under its learn key.
func TestStorable(t *testing.T) {
	c := circuit.New()
	c.AddPO("z", c.AddPI("a"))
	whole := &core.Result{Circuit: c}
	for _, tc := range []struct {
		name string
		opts core.Options
		res  *core.Result
		want bool
	}{
		{"whole", core.Options{}, whole, true},
		{"time limit", core.Options{TimeLimit: time.Hour}, whole, false},
		{"degraded", core.Options{}, &core.Result{Circuit: c, Degraded: true}, false},
		{"canceled", core.Options{}, &core.Result{Circuit: c, Canceled: true}, false},
		{"no circuit", core.Options{}, &core.Result{}, false},
		{"no result", core.Options{}, nil, false},
	} {
		if got := Storable(tc.opts, tc.res); got != tc.want {
			t.Errorf("%s: Storable = %v, want %v", tc.name, got, tc.want)
		}
	}
}
