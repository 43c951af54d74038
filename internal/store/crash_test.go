package store

// The crash-point property test and the byte-identity acceptance drills.
// These are the contract the whole persistence layer hangs on:
//
//  1. A process killed at ANY byte offset of the memo log either recovers
//     a valid prefix of its pre-crash history or reports corruption —
//     never a silent wrong answer, never a panic.
//  2. Attaching the store to a fixed-seed learn never changes the learned
//     netlist: not cold, not warm-started from a previous run, not after
//     a mid-learn crash, not with a disk that tears writes and fails
//     fsyncs under it.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"logicregression/internal/chaos"
	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/oracle"
	"logicregression/internal/vfs"
)

// crashBox is a small deterministic black box for learn drills.
func crashBox() *circuit.Circuit {
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	d := c.AddPI("d")
	e := c.AddPI("e")
	f := c.AddPI("f")
	c.AddPO("z0", c.Xor(c.And(a, b), d))
	c.AddPO("z1", c.Or(c.And(d, e), c.Xor(f, a)))
	return c
}

func netlistOf(t *testing.T, c *circuit.Circuit) string {
	t.Helper()
	var sb strings.Builder
	if err := circuit.WriteNetlist(&sb, c); err != nil {
		t.Fatalf("WriteNetlist: %v", err)
	}
	return sb.String()
}

// TestCrashAtEveryByte kills the writing "process" at every byte offset of
// a golden memo log and reopens over the surviving bytes. The recovered
// entries must be exactly the longest whole-record prefix that fit under
// the crash point — no invented entries, no dropped survivors, no
// corruption report (a crash tail is torn, not rotted), and no panic.
func TestCrashAtEveryByte(t *testing.T) {
	// Golden history: the exact bytes a fault-free run writes.
	type pair struct {
		key string
		out []bool
	}
	var history []pair
	for i := 0; i < 8; i++ {
		history = append(history, pair{
			key: oracle.MemoKey(bits(fmt.Sprintf("%06b", i*7+1))),
			out: bits(fmt.Sprintf("%02b", i%4)),
		})
	}
	goldenFS := vfs.NewMemFS()
	gs := openStore(t, goldenFS)
	for _, p := range history {
		if err := gs.memo.append(p.key, p.out); err != nil {
			t.Fatal(err)
		}
	}
	gs.Close()
	golden := goldenFS.Snapshot("st/" + memoLogName)
	if len(golden) == 0 {
		t.Fatal("golden log is empty")
	}

	// recordsIn counts whole records in a prefix of the golden bytes.
	recordsIn := func(prefix []byte) int {
		sc := recordScanner{data: prefix}
		n := 0
		for {
			if _, err := sc.next(); err != nil {
				return n
			}
			n++
		}
	}

	// CrashAtByte > 0 is required to arm the fault, so offset 0 (nothing
	// written at all) is covered by the plain empty-dir open tests.
	for crash := 1; crash <= len(golden); crash++ {
		mem := vfs.NewMemFS()
		faulty := chaos.NewFaultFS(mem, chaos.FSConfig{CrashAtByte: int64(crash)})

		// The doomed process: replay the same appends until the disk dies.
		s, err := Open(Config{Dir: "st", FS: faulty})
		if err != nil {
			t.Fatalf("crash=%d: open failed early: %v", crash, err)
		}
		for _, p := range history {
			// The hook path must absorb the crash, not propagate it.
			s.MemoInsert(p.key, p.out)
		}
		s.Close()

		// Reboot: a fresh store over the survivors.
		s2, err := Open(Config{Dir: "st", FS: mem})
		if err != nil {
			t.Fatalf("crash=%d: reopen failed: %v", crash, err)
		}
		info := s2.Recovery()
		if info.Corrupt {
			t.Fatalf("crash=%d: torn tail misreported as corruption: %+v", crash, info)
		}
		survivors := mem.Snapshot("st/" + memoLogName)
		if int64(len(survivors)) > int64(crash) {
			t.Fatalf("crash=%d: %d bytes survived past the crash point", crash, len(survivors))
		}
		wantRecords := recordsIn(golden[:min(crash, len(golden))])
		if int(info.Records) != wantRecords {
			t.Fatalf("crash=%d: recovered %d records, want %d", crash, info.Records, wantRecords)
		}
		got := map[string][]bool{}
		s2.memo.each(func(k string, v []bool) { got[k] = v })
		if len(got) != wantRecords {
			t.Fatalf("crash=%d: %d live entries, want %d", crash, len(got), wantRecords)
		}
		for i := 0; i < wantRecords; i++ {
			if !slices.Equal(got[history[i].key], history[i].out) {
				t.Fatalf("crash=%d: entry %d corrupted after recovery", crash, i)
			}
		}
		// The repaired log must be clean: one more reopen sees zero damage.
		s2.Close()
		s3, err := Open(Config{Dir: "st", FS: mem})
		if err != nil {
			t.Fatalf("crash=%d: second reopen: %v", crash, err)
		}
		if ri := s3.Recovery(); ri.Corrupt || ri.TruncatedBytes != 0 {
			t.Fatalf("crash=%d: recovery did not repair in place: %+v", crash, ri)
		}
		s3.Close()
	}
}

// TestCrashDuringCompaction kills the writing process at every byte offset
// of a run that crosses compactions: the appends before a rewrite, the
// rewrite itself, and the appends after it. Every reopen must report no
// corruption and hold exactly the last-wins state of the appends whose
// records landed whole; a crash inside a rewrite therefore leaves the
// pre-compaction live set.
func TestCrashDuringCompaction(t *testing.T) {
	const compactAt = 300
	open := func(fsys vfs.FS) *Store {
		t.Helper()
		s := openStore(t, fsys)
		s.memo.compactAt = compactAt
		return s
	}
	// Four keys rewritten round after round with a changing value, so
	// every append writes a record while the live set stays at four.
	type pair struct {
		key string
		out []bool
	}
	var history []pair
	for i := 0; i < 48; i++ {
		history = append(history, pair{
			key: oracle.MemoKey(bits(fmt.Sprintf("%06b", 9*(i%4)+2))),
			out: bits(fmt.Sprintf("%02b", (i/4)%4)),
		})
	}
	lastWins := func(n int) map[string][]bool {
		m := map[string][]bool{}
		for _, p := range history[:n] {
			m[p.key] = p.out
		}
		return m
	}

	// Golden run: landed[i] is the byte count at which append i's record
	// is whole; rewrites[i] is how many bytes the compaction that append i
	// triggered wrote after it.
	golden := chaos.NewFaultFS(vfs.NewMemFS(), chaos.FSConfig{})
	gs := open(golden)
	landed := make([]int64, len(history))
	rewrites := make([]int64, len(history))
	for i, p := range history {
		before := golden.Written()
		gs.MemoInsert(p.key, p.out)
		landed[i] = before + int64(len(appendRecord(nil, encodeMemoEntry(p.key, p.out))))
		rewrites[i] = golden.Written() - landed[i]
	}
	if st := gs.Stats(); st.Compactions < 2 || st.Degraded {
		t.Fatalf("golden run made %d compactions (degraded=%v), want at least 2", st.Compactions, st.Degraded)
	}
	gs.Close()
	total := golden.Written()

	inRewrite := 0
	for crash := int64(1); crash <= total; crash++ {
		mem := vfs.NewMemFS()
		s := open(chaos.NewFaultFS(mem, chaos.FSConfig{CrashAtByte: crash}))
		for _, p := range history {
			s.MemoInsert(p.key, p.out)
		}
		s.Close()

		whole := 0
		for i := range history {
			if landed[i] <= crash {
				whole = i + 1
			}
			if landed[i] < crash && crash <= landed[i]+rewrites[i] {
				inRewrite++
			}
		}
		s2 := open(mem)
		if info := s2.Recovery(); info.Corrupt {
			t.Fatalf("crash=%d: reopen reported corruption: %+v", crash, info)
		}
		got := map[string][]bool{}
		s2.memo.each(func(k string, v []bool) { got[k] = v })
		want := lastWins(whole)
		if len(got) != len(want) {
			t.Fatalf("crash=%d: %d live entries, want the %d of the first %d appends", crash, len(got), len(want), whole)
		}
		for k, v := range want {
			if !slices.Equal(got[k], v) {
				t.Fatalf("crash=%d: key %x = %v, want %v (last-wins over the first %d appends)", crash, k, got[k], v, whole)
			}
		}
		s2.Close()
	}
	if inRewrite == 0 {
		t.Fatal("no crash point fell inside a compaction rewrite")
	}
	t.Logf("%d crash points, %d inside a rewrite", total, inRewrite)
}

// TestLearnByteIdenticalWithStore is the acceptance drill: a fixed-seed
// learn with the store attached produces the exact netlist bytes of a
// plain in-memory learn — cold, warm-started from the previous run's log,
// and resumed from a partial log after a mid-learn disk crash.
func TestLearnByteIdenticalWithStore(t *testing.T) {
	box := crashBox()
	opts := core.Options{Seed: 11}
	want := netlistOf(t, core.Learn(oracle.FromCircuit(box), opts).Circuit)

	// Cold: empty store attached write-through.
	mem := vfs.NewMemFS()
	s, err := Open(Config{Dir: "st", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	m := oracle.NewMemo(oracle.FromCircuit(box))
	s.AttachMemo(m)
	got := netlistOf(t, core.Learn(m, opts).Circuit)
	if got != want {
		t.Fatal("cold learn with store attached diverged from in-memory learn")
	}
	m.SetHook(nil)
	st := s.Stats()
	if st.HookWrites == 0 || st.Degraded {
		t.Fatalf("store did not persist the learn: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm: a new process preloads the log; every query is a cache hit and
	// the result is still byte-identical.
	s2, err := Open(Config{Dir: "st", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	cnt := oracle.NewCounter(oracle.FromCircuit(box))
	m2 := oracle.NewMemo(cnt)
	if n := s2.AttachMemo(m2); n == 0 {
		t.Fatal("nothing preloaded from a log that persisted a whole learn")
	}
	got2 := netlistOf(t, core.Learn(m2, opts).Circuit)
	if got2 != want {
		t.Fatal("warm-started learn diverged")
	}
	if cnt.Queries() != 0 {
		t.Fatalf("warm-started learn still made %d oracle queries", cnt.Queries())
	}
	m2.SetHook(nil)
	s2.Close()

	// Crashed: rerun with a disk that dies partway through persisting.
	// The learn must not notice; the next process recovers the partial
	// log and its resumed learn is still byte-identical.
	mem3 := vfs.NewMemFS()
	half := mem.TotalBytes() / 2
	faulty := chaos.NewFaultFS(mem3, chaos.FSConfig{CrashAtByte: half})
	s3, err := Open(Config{Dir: "st", FS: faulty})
	if err != nil {
		t.Fatal(err)
	}
	m3 := oracle.NewMemo(oracle.FromCircuit(box))
	s3.AttachMemo(m3)
	got3 := netlistOf(t, core.Learn(m3, opts).Circuit)
	if got3 != want {
		t.Fatal("learn over a dying disk diverged — degraded mode must be invisible")
	}
	if !s3.Degraded() {
		t.Fatalf("disk crashed at byte %d but store never degraded", half)
	}
	m3.SetHook(nil)
	s3.Close()

	s4, err := Open(Config{Dir: "st", FS: mem3})
	if err != nil {
		t.Fatalf("reopen after mid-learn crash: %v", err)
	}
	if s4.Recovery().Corrupt {
		t.Fatalf("mid-learn crash left corruption: %+v", s4.Recovery())
	}
	m4 := oracle.NewMemo(oracle.FromCircuit(box))
	if n := s4.AttachMemo(m4); n == 0 {
		t.Fatal("nothing recovered from the pre-crash prefix")
	}
	got4 := netlistOf(t, core.Learn(m4, opts).Circuit)
	if got4 != want {
		t.Fatal("learn resumed from a crash-recovered log diverged")
	}
	m4.SetHook(nil)
	s4.Close()
}

// TestLearnByteIdenticalUnderChaos soaks the full fault matrix: torn
// writes and fsync errors on every operation. The learned netlist must
// stay byte-identical across seeds; the store may degrade, never the
// learn.
func TestLearnByteIdenticalUnderChaos(t *testing.T) {
	box := crashBox()
	opts := core.Options{Seed: 23}
	want := netlistOf(t, core.Learn(oracle.FromCircuit(box), opts).Circuit)

	for seed := int64(1); seed <= 5; seed++ {
		mem := vfs.NewMemFS()
		faulty := chaos.NewFaultFS(mem, chaos.FSConfig{
			Seed:          seed,
			TornWriteRate: 0.2,
			SyncErrRate:   0.2,
		})
		s, err := Open(Config{Dir: "st", FS: faulty})
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		m := oracle.NewMemo(oracle.FromCircuit(box))
		s.AttachMemo(m)
		got := netlistOf(t, core.Learn(m, opts).Circuit)
		if got != want {
			t.Fatalf("seed %d: learn under injected faults diverged", seed)
		}
		m.SetHook(nil)
		s.Close()

		// Whatever survived must replay cleanly (or report, never invent).
		s2, err := Open(Config{Dir: "st", FS: mem})
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		box2 := oracle.FromCircuit(box)
		s2.memo.each(func(k string, v []bool) {
			// Every recovered entry must be a true oracle answer: decode
			// the key back to the assignment and re-ask the box.
			a := make([]bool, box2.NumInputs())
			for i := range a {
				a[i] = k[i>>3]&(1<<uint(i&7)) != 0
			}
			if !slices.Equal(box2.Eval(a), v) {
				t.Fatalf("seed %d: recovered entry disagrees with the oracle", seed)
			}
		})
		s2.Close()
	}
}
