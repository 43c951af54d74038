package oracle

import (
	"sync"
	"testing"
)

// recordingHook captures hook callbacks for inspection.
type recordingHook struct {
	mu      sync.Mutex
	inserts []string
	vals    map[string][]bool
}

func newRecordingHook() *recordingHook {
	return &recordingHook{vals: make(map[string][]bool)}
}

func (h *recordingHook) MemoInsert(key string, out []bool) {
	h.mu.Lock()
	h.inserts = append(h.inserts, key)
	h.vals[key] = append([]bool(nil), out...)
	h.mu.Unlock()
}

func (h *recordingHook) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.inserts)
}

// identityish is a 3-input test oracle whose output mirrors input 0.
func hookTestOracle() *FuncOracle {
	return &FuncOracle{
		Ins:  []string{"a", "b", "c"},
		Outs: []string{"z"},
		F:    func(a []bool) []bool { return []bool{a[0]} },
	}
}

func TestMemoHookInsert(t *testing.T) {
	m := NewMemo(hookTestOracle())
	h := newRecordingHook()
	m.SetHook(h)

	a := []bool{true, false, true}
	m.Eval(a)
	m.Eval(a) // hit: no second insert
	if ins := h.count(); ins != 1 {
		t.Fatalf("inserts = %d, want 1", ins)
	}
	if got := h.vals[MemoKey(a)]; len(got) != 1 || got[0] != true {
		t.Fatalf("hook captured %v for %v", got, a)
	}
}

// TestMemoHookEviction: an eviction is counted but not reported — the hook
// already saw the evicted entry when it was inserted.
func TestMemoHookEviction(t *testing.T) {
	m := NewMemoCap(hookTestOracle(), 2) // single shard (tiny cap)
	h := newRecordingHook()
	m.SetHook(h)

	pats := [][]bool{
		{false, false, false},
		{true, false, false},
		{false, true, false}, // evicts the first
	}
	for _, p := range pats {
		m.Eval(p)
	}
	if ins := h.count(); ins != 3 {
		t.Fatalf("inserts = %d, want 3", ins)
	}
	for i, p := range pats {
		if h.inserts[i] != MemoKey(p) {
			t.Fatalf("insert %d reported %q, want %q", i, h.inserts[i], MemoKey(p))
		}
	}
	if m.Stats().Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", m.Stats().Evictions)
	}
}

func TestMemoPreloadSilent(t *testing.T) {
	inner := NewCounter(hookTestOracle())
	m := NewMemo(inner)
	h := newRecordingHook()
	m.SetHook(h)

	a := []bool{true, true, false}
	m.Preload(MemoKey(a), []bool{true})
	if ins := h.count(); ins != 0 {
		t.Fatalf("preload fired the hook %d times", ins)
	}
	if m.Stats().Hits != 0 || m.Stats().Misses != 0 {
		t.Fatalf("preload touched counters: hits=%d misses=%d", m.Stats().Hits, m.Stats().Misses)
	}

	// The preloaded entry answers without reaching the inner oracle.
	out := m.Eval(a)
	if len(out) != 1 || out[0] != true {
		t.Fatalf("Eval = %v", out)
	}
	if inner.Queries() != 0 {
		t.Fatalf("preloaded query reached the oracle (%d queries)", inner.Queries())
	}
	if m.Stats().Hits != 1 {
		t.Fatalf("hits = %d, want 1", m.Stats().Hits)
	}
}

func TestMemoPreloadEvictionSilent(t *testing.T) {
	m := NewMemoCap(hookTestOracle(), 2)
	h := newRecordingHook()
	m.SetHook(h)
	for _, p := range [][]bool{
		{false, false, false},
		{true, false, false},
		{false, true, false},
		{true, true, false},
	} {
		m.Preload(MemoKey(p), []bool{p[0]})
	}
	if ins := h.count(); ins != 0 {
		t.Fatalf("preloads that evicted fired the hook %d times", ins)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", m.Len())
	}
}

func TestMemoHookBatchPath(t *testing.T) {
	m := NewMemo(hookTestOracle())
	h := newRecordingHook()
	m.SetHook(h)

	pats := [][]bool{
		{false, false, true},
		{true, false, true},
		{false, false, true}, // duplicate inside the batch
	}
	lanes := packPatterns(pats, 3)
	m.EvalBatch(lanes, len(pats))
	if ins := h.count(); ins != 2 {
		t.Fatalf("batch inserts = %d, want 2 (deduped)", ins)
	}
}

func TestMemoSetHookNilDetaches(t *testing.T) {
	m := NewMemo(hookTestOracle())
	h := newRecordingHook()
	m.SetHook(h)
	m.SetHook(nil)
	m.Eval([]bool{true, false, false})
	if ins := h.count(); ins != 0 {
		t.Fatalf("detached hook still fired %d times", ins)
	}
}
