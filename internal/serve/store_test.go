package serve

import (
	"testing"
	"time"

	"logicregression/internal/core"
	"logicregression/internal/oracle"
	"logicregression/internal/store"
	"logicregression/internal/vfs"
)

// TestStoreWarmStartAcrossRestart pins the service-level persistence
// contract: a learn job completed in one service "process" is answered
// from the circuit store by the next one — byte-identical netlist, zero
// oracle queries, and the warm hit visible in the metrics.
func TestStoreWarmStartAcrossRestart(t *testing.T) {
	box := testBox()
	const seed = 7
	want := netlistText(t, core.Learn(oracle.FromCircuit(box), core.Options{Seed: seed}).Circuit)

	mem := vfs.NewMemFS()

	// First life: learn cold, persist.
	st, err := store.Open(store.Config{Dir: "st", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(oracle.FromCircuit(box), Config{Workers: 1, Store: st})
	sess, err := svc.NewSession("acme")
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	j, err := svc.Submit(sess, seed)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j.Done())
	res := j.Result()
	if res == nil || netlistText(t, res.Circuit) != want {
		t.Fatal("cold service learn diverged from the in-process learn")
	}
	if snap := svc.Registry().Snapshot(); snap.Counters["store_warm_hits"] != 0 {
		t.Fatal("cold learn counted as a warm hit")
	}
	svc.Drain()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: same oracle, same seed — the job must be answered from
	// the store without a single query to the black box.
	st2, err := store.Open(store.Config{Dir: "st", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	cnt := oracle.NewCounter(oracle.FromCircuit(box))
	svc2 := New(cnt, Config{Workers: 1, Store: st2})
	defer func() {
		svc2.Drain()
		st2.Close()
	}()
	sess2, err := svc2.NewSession("acme")
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	j2, err := svc2.Submit(sess2, seed)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j2.Done())
	res2 := j2.Result()
	if res2 == nil || netlistText(t, res2.Circuit) != want {
		t.Fatal("warm-started job result diverged")
	}
	if q := cnt.Queries(); q != 0 {
		t.Fatalf("warm-started job still made %d oracle queries", q)
	}
	snap := svc2.Registry().Snapshot()
	if snap.Counters["store_warm_hits"] != 1 {
		t.Fatalf("store_warm_hits = %d, want 1", snap.Counters["store_warm_hits"])
	}
	if snap.Counters["jobs_completed"] != 1 {
		t.Fatalf("jobs_completed = %d, want 1", snap.Counters["jobs_completed"])
	}

	// A different seed is a different learn key: it must miss the circuit
	// store and learn for real. (It may still answer every query from the
	// preloaded memo log — that is the memo tier doing its job — but the
	// warm-hit counter must not move.)
	j3, err := svc2.Submit(sess2, seed+1)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j3.Done())
	if j3.Result() == nil {
		t.Fatal("miss-path job produced no result")
	}
	if hits := j3.MemoStats().Hits; hits == 0 {
		t.Fatal("miss-path job never touched its preloaded memo")
	}
	if snap := svc2.Registry().Snapshot(); snap.Counters["store_warm_hits"] != 1 {
		t.Fatalf("store_warm_hits grew on a circuit-store miss: %d", snap.Counters["store_warm_hits"])
	}
}

// TestTimeLimitedJobIsNotStored: a learn with a time limit may stop at its
// deadline, and the learn key leaves TimeLimit out, so the service must not
// store its circuit where an unlimited learn of the same key would read it.
func TestTimeLimitedJobIsNotStored(t *testing.T) {
	st, err := store.Open(store.Config{Dir: "st", FS: vfs.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := New(oracle.FromCircuit(testBox()), Config{
		Workers: 1,
		Store:   st,
		Learn:   core.Options{TimeLimit: time.Hour},
	})
	sess, err := svc.NewSession("acme")
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	j, err := svc.Submit(sess, 7)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j.Done())
	svc.Drain()
	if res := j.Result(); res == nil || res.Circuit == nil || res.Degraded || res.Canceled {
		t.Fatalf("time-limited job did not finish whole: %+v", res)
	}
	if n := st.Stats().Circuits; n != 0 {
		t.Fatalf("a time-limited learn stored %d circuits, want 0", n)
	}
}
