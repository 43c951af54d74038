package vfs

// MemFS: a deterministic in-memory filesystem. It exists for crash drills —
// a chaos.FaultFS layered over a MemFS can kill a "process" at an exact
// byte offset and the surviving bytes stay inspectable, so a test can
// reopen the store over the same MemFS and verify recovery against the
// pre-crash history. It is also simply a fast hermetic FS for unit tests.
//
// Semantics follow os.File where the store relies on them: O_APPEND writes
// land at the end while reads start at offset 0, and Rename atomically
// replaces the target. Sync is a no-op (memory is "stable storage" here;
// injected fsync faults come from the chaos wrapper, not from MemFS).

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path"
	"strings"
	"sync"
	"time"
)

// MemFS is an in-memory FS implementation. The zero value is not usable;
// call NewMemFS.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	dirs  map[string]bool
}

type memNode struct {
	mu   sync.Mutex
	data []byte
}

// NewMemFS returns an empty in-memory filesystem with a root directory.
func NewMemFS() *MemFS {
	return &MemFS{
		files: make(map[string]*memNode),
		dirs:  map[string]bool{".": true},
	}
}

// clean normalizes a path to the slash-separated canonical form used as the
// map key.
func clean(name string) string {
	return path.Clean(strings.ReplaceAll(name, "\\", "/"))
}

// TotalBytes returns the sum of all file sizes — the footprint a compaction
// test asserts shrinks.
func (m *MemFS) TotalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, n := range m.files {
		n.mu.Lock()
		total += int64(len(n.data))
		n.mu.Unlock()
	}
	return total
}

// Snapshot returns a deep copy of a file's current bytes (nil when absent),
// for corruption drills that patch bytes directly.
func (m *MemFS) Snapshot(name string) []byte {
	m.mu.Lock()
	n, ok := m.files[clean(name)]
	m.mu.Unlock()
	if !ok {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]byte(nil), n.data...)
}

// Patch overwrites one byte of a file in place — simulated bit rot.
func (m *MemFS) Patch(name string, off int64, b byte) error {
	m.mu.Lock()
	n, ok := m.files[clean(name)]
	m.mu.Unlock()
	if !ok {
		return &fs.PathError{Op: "patch", Path: name, Err: fs.ErrNotExist}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if off < 0 || off >= int64(len(n.data)) {
		return &fs.PathError{Op: "patch", Path: name, Err: errors.New("offset out of range")}
	}
	n.data[off] = b
	return nil
}

func (m *MemFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	node, exists := m.files[name]
	switch {
	case !exists && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case exists && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case !exists:
		if dir := path.Dir(name); !m.dirs[dir] {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		node = &memNode{}
		m.files[name] = node
	}
	if flag&os.O_TRUNC != 0 {
		node.mu.Lock()
		node.data = nil
		node.mu.Unlock()
	}
	return &memHandle{node: node, flag: flag}, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = clean(oldpath), clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = n
	return nil
}

func (m *MemFS) Remove(name string) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; ok {
		delete(m.files, name)
		return nil
	}
	if m.dirs[name] {
		delete(m.dirs, name)
		return nil
	}
	return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
}

func (m *MemFS) MkdirAll(p string, perm fs.FileMode) error {
	p = clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p != "." && p != "/" {
		m.dirs[p] = true
		p = path.Dir(p)
	}
	return nil
}

func (m *MemFS) Stat(name string) (fs.FileInfo, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if node, ok := m.files[name]; ok {
		node.mu.Lock()
		size := int64(len(node.data))
		node.mu.Unlock()
		return memFileInfo{name: path.Base(name), size: size}, nil
	}
	if m.dirs[name] {
		return memFileInfo{name: path.Base(name), dir: true}, nil
	}
	return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
}

func (m *MemFS) SyncDir(name string) error { return nil }

// memHandle is one open handle on a memNode.
type memHandle struct {
	node *memNode
	flag int

	mu     sync.Mutex
	off    int64
	closed bool
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	h.node.mu.Lock()
	defer h.node.mu.Unlock()
	if h.off >= int64(len(h.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.node.data[h.off:])
	h.off += int64(n)
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	h.node.mu.Lock()
	defer h.node.mu.Unlock()
	if h.flag&os.O_APPEND != 0 {
		h.off = int64(len(h.node.data))
	}
	end := h.off + int64(len(p))
	if end > int64(len(h.node.data)) {
		grown := make([]byte, end)
		copy(grown, h.node.data)
		h.node.data = grown
	}
	copy(h.node.data[h.off:end], p)
	h.off = end
	return len(p), nil
}

func (h *memHandle) Sync() error { return nil }

func (h *memHandle) Truncate(size int64) error {
	h.node.mu.Lock()
	defer h.node.mu.Unlock()
	if size < 0 {
		return errors.New("vfs: negative truncate")
	}
	if size <= int64(len(h.node.data)) {
		h.node.data = h.node.data[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, h.node.data)
		h.node.data = grown
	}
	return nil
}

func (h *memHandle) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	return nil
}

// memFileInfo implements fs.FileInfo minimally.
type memFileInfo struct {
	name string
	size int64
	dir  bool
}

func (i memFileInfo) Name() string { return i.name }
func (i memFileInfo) Size() int64  { return i.size }
func (i memFileInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memFileInfo) ModTime() time.Time { return time.Time{} }
func (i memFileInfo) IsDir() bool        { return i.dir }
func (i memFileInfo) Sys() any           { return nil }

var _ FS = (*MemFS)(nil)
