package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
	"testing"
	"time"

	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/oracle"
	"logicregression/internal/vfs"
)

// noFlush opens a store over fsys with the background flusher and
// compaction disabled and per-append fsync — fully deterministic I/O for
// crash and recovery drills.
func noFlush(t *testing.T, fsys vfs.FS) *Store {
	t.Helper()
	s, err := Open(Config{Dir: "st", FS: fsys, FlushInterval: -1, CompactAt: -1})
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
	s := noFlush(t, mem)
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

	s2 := noFlush(t, mem)
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
		if !boolsEqual(got[k], want) {
			t.Fatalf("entry %x = %v, want %v", k, got[k], want)
		}
	}
}

// TestMemoLogTornTail chops the log mid-record and verifies reopen
// recovers the full-record prefix, repairs the file, and does NOT flag
// corruption — a torn tail is the expected residue of a crash.
func TestMemoLogTornTail(t *testing.T) {
	mem := vfs.NewMemFS()
	s := noFlush(t, mem)
	for i := 0; i < 5; i++ {
		s.memo.append(oracle.MemoKey(bits(fmt.Sprintf("%04b", i))), bits("1"))
	}
	s.Close()

	name := "st/" + segmentName(1)
	full := mem.Snapshot(name)
	// Cut inside the final record.
	cut := int64(len(full) - 3)
	f, _ := mem.OpenFile(name, os.O_RDWR, 0o644)
	f.Truncate(cut)
	f.Close()

	s2 := noFlush(t, mem)
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
	s := noFlush(t, mem)
	for i := 0; i < 6; i++ {
		s.memo.append(oracle.MemoKey(bits(fmt.Sprintf("%04b", i))), bits("1"))
	}
	s.Close()

	name := "st/" + segmentName(1)
	full := mem.Snapshot(name)
	recLen := len(full) / 6
	// Rot a payload byte inside record 2 (0-based).
	if err := mem.Patch(name, int64(2*recLen+recordHeaderSize), 0xFF); err != nil {
		t.Fatalf("patch: %v", err)
	}

	s2 := noFlush(t, mem)
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
	s, err := Open(Config{Dir: "st", FS: mem, FlushInterval: -1, CompactAt: 600})
	if err != nil {
		t.Fatal(err)
	}
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
	// Exactly one segment file remains, numbered past the retired ones.
	entries, _ := mem.ReadDir("st")
	var segs []string
	for _, e := range entries {
		if parseSegmentName(e.Name()) > 0 {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) != 1 {
		t.Fatalf("segments after compaction = %v", segs)
	}
	s.Close()

	// The compacted log replays to the same live set.
	s2 := noFlush(t, mem)
	defer s2.Close()
	if got := s2.memo.entryCount(); got != 4 {
		t.Fatalf("entries after reopen = %d, want 4", got)
	}
	for _, k := range keys {
		if !boolsEqual(s2.memo.live[k], []bool{false}) {
			t.Fatalf("key %x lost its last-written value", k)
		}
	}
}

// TestGroupCommitFlusher checks the batched-fsync policy: with a large
// batch size, appends stay pending until the background flusher's tick
// syncs them as a group.
func TestGroupCommitFlusher(t *testing.T) {
	mem := vfs.NewMemFS()
	s, err := Open(Config{Dir: "st", FS: mem, SyncEvery: 1000, FlushInterval: 2 * time.Millisecond, CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.memo.append(oracle.MemoKey(bits(fmt.Sprintf("%04b", i))), bits("1"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.memo.mu.Lock()
		syncs, pending := s.memo.syncs, s.memo.pending
		s.memo.mu.Unlock()
		if syncs > 0 && pending == 0 {
			if syncs >= 10 {
				t.Fatalf("flusher made %d syncs for 10 appends: not grouped", syncs)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flusher never synced: syncs=%d pending=%d", syncs, pending)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStoreDegradesOnSyncFault(t *testing.T) {
	mem := vfs.NewMemFS()
	fsys := newAlwaysFailSync(mem)
	s, err := Open(Config{Dir: "st", FS: fsys, FlushInterval: -1, CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The hook must absorb the failure: no error, no panic, store degraded.
	s.MemoInsert(oracle.MemoKey(bits("0101")), bits("1"))
	if !s.Degraded() {
		t.Fatal("store not degraded after fsync failure")
	}
	if s.Err() == nil {
		t.Fatal("degraded store lost its first error")
	}
	// Later hook calls are dropped, counted, and still harmless.
	s.MemoInsert(oracle.MemoKey(bits("0110")), bits("1"))
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
	s := noFlush(t, mem)
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

	// The same circuit under a second key shares one blob.
	key2 := LearnKey{Identity: ident, Seed: 4, Options: "o"}
	if err := s.PutCircuit(key2, c); err != nil {
		t.Fatalf("put 2: %v", err)
	}
	objs, _ := mem.ReadDir("st/objects")
	if len(objs) != 1 {
		t.Fatalf("object count = %d, want 1 (content addressing dedups)", len(objs))
	}
	if st := s.Stats(); st.Circuits != 2 {
		t.Fatalf("indexed circuits = %d, want 2", st.Circuits)
	}
}

// TestParallelLearnKeyMissesSequential: a Parallel > 1 learn builds its
// own netlist, so the circuit it stores must not answer the sequential
// key, while sequential keys stay what they always were.
func TestParallelLearnKeyMissesSequential(t *testing.T) {
	s := noFlush(t, vfs.NewMemFS())
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
	s := noFlush(t, mem)
	c := circuit.New()
	a, b := c.AddPI("a"), c.AddPI("b")
	c.AddPO("z", c.And(a, b))
	key := LearnKey{Identity: oracle.IdentityOf(oracle.FromCircuit(c)), Seed: 1}
	if err := s.PutCircuit(key, c); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := noFlush(t, mem)
	defer s2.Close()
	got, err := s2.GetCircuit(key)
	if err != nil || got == nil {
		t.Fatalf("reopen get: (%v, %v)", got, err)
	}

	// Rot one byte of the blob: the content hash must catch it.
	objs, _ := mem.ReadDir("st/objects")
	if err := mem.Patch("st/objects/"+objs[0].Name(), 3, '#'); err != nil {
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
	s := noFlush(t, mem)
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
		if got := m.Eval(q); !boolsEqual(got, wantOut) {
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
	s := noFlush(t, vfs.NewMemFS())
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
