package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestFSContract runs the same behavioural contract against MemFS and the
// real OS filesystem (in a temp dir), so the in-memory stand-in cannot
// drift from the semantics the store relies on.
func TestFSContract(t *testing.T) {
	t.Run("mem", func(t *testing.T) { fsContract(t, NewMemFS(), "root") })
	t.Run("os", func(t *testing.T) { fsContract(t, OS{}, filepath.Join(t.TempDir(), "root")) })
}

func fsContract(t *testing.T, v FS, root string) {
	t.Helper()
	join := func(parts ...string) string {
		return filepath.Join(append([]string{root}, parts...)...)
	}
	if err := v.MkdirAll(join("sub"), 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}

	// Create + write + append semantics.
	f, err := v.OpenFile(join("sub", "a.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen for append lands at the end.
	f, err = v.OpenFile(join("sub", "a.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := f.Write([]byte("!")); err != nil {
		t.Fatalf("append: %v", err)
	}
	f.Close()

	readAll := func(name string) string {
		t.Helper()
		r, err := v.OpenFile(name, os.O_RDONLY, 0)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		defer r.Close()
		b, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		return string(b)
	}
	if got := readAll(join("sub", "a.log")); got != "hello world!" {
		t.Fatalf("content = %q", got)
	}

	// Truncate repairs a torn tail.
	f, err = v.OpenFile(join("sub", "a.log"), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("open rw: %v", err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	f.Close()
	if got := readAll(join("sub", "a.log")); got != "hello" {
		t.Fatalf("after truncate = %q", got)
	}

	// Rename atomically replaces.
	g, err := v.OpenFile(join("sub", "b.tmp"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("create tmp: %v", err)
	}
	g.Write([]byte("new"))
	g.Close()
	if err := v.Rename(join("sub", "b.tmp"), join("sub", "a.log")); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if got := readAll(join("sub", "a.log")); got != "new" {
		t.Fatalf("after rename = %q", got)
	}
	if err := v.SyncDir(join("sub")); err != nil {
		t.Fatalf("syncdir: %v", err)
	}

	// Stat and Remove.
	h, _ := v.OpenFile(join("sub", "0th.log"), os.O_CREATE|os.O_WRONLY, 0o644)
	h.Close()
	info, err := v.Stat(join("sub", "a.log"))
	if err != nil || info.Size() != 3 {
		t.Fatalf("stat: %v %v", info, err)
	}
	if err := v.Remove(join("sub", "0th.log")); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := v.Stat(join("sub", "0th.log")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stat removed: %v", err)
	}
	if _, err := v.OpenFile(join("sub", "missing"), os.O_RDONLY, 0); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}

	// One read-write append handle, the way a log opens its file: reads
	// start at offset 0, Truncate cuts a torn tail, and writes land at the
	// new end.
	f, err = v.OpenFile(join("sub", "a.log"), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	if b, err := io.ReadAll(f); err != nil || string(b) != "new" {
		t.Fatalf("log read = %q, %v", b, err)
	}
	if err := f.Truncate(2); err != nil {
		t.Fatalf("log truncate: %v", err)
	}
	if _, err := f.Write([]byte("w!")); err != nil {
		t.Fatalf("log append: %v", err)
	}
	f.Close()
	if got := readAll(join("sub", "a.log")); got != "new!" {
		t.Fatalf("log after repair and append = %q", got)
	}
}

func TestMemFSPatchAndSnapshot(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("d", 0o755)
	f, _ := m.OpenFile("d/x", os.O_CREATE|os.O_WRONLY, 0o644)
	f.Write([]byte("abc"))
	f.Close()
	if err := m.Patch("d/x", 1, 'Z'); err != nil {
		t.Fatalf("patch: %v", err)
	}
	if got := string(m.Snapshot("d/x")); got != "aZc" {
		t.Fatalf("snapshot = %q", got)
	}
	if err := m.Patch("d/x", 99, 'Z'); err == nil {
		t.Fatal("patch out of range succeeded")
	}
	if m.TotalBytes() != 3 {
		t.Fatalf("TotalBytes = %d", m.TotalBytes())
	}
}
