// Package vfs is the minimal filesystem seam the persistent store writes
// through. Production code uses OS (the real filesystem); tests and chaos
// drills swap in MemFS (a deterministic in-memory filesystem) or a
// chaos.FaultFS wrapper that injects torn writes, fsync errors, read
// bit-flips, and crash-at-offset kills. The interface is exactly what the
// store uses, so every implementation can give precise crash semantics: a
// log file is opened, read whole, truncated at a torn tail, appended to
// and fsynced; a rewrite or a circuit blob goes temp file, fsync, rename,
// directory sync; Stat asks whether a blob exists, Remove drops a stale or
// failed temp file, and MkdirAll makes the directories.
package vfs

import (
	"io"
	"io/fs"
	"os"
)

// File is one open file handle.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	// Truncate cuts the file to the given size — the torn-tail repair
	// operation of log recovery.
	Truncate(size int64) error
}

// FS is the filesystem surface the store needs. Paths use the host
// separator conventions of path/filepath.
type FS interface {
	// OpenFile opens a file with os.OpenFile semantics.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath (POSIX rename).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm fs.FileMode) error
	// Stat describes a file.
	Stat(name string) (fs.FileInfo, error)
	// SyncDir flushes directory metadata (new files, renames) to stable
	// storage. Implementations where that has no meaning return nil.
	SyncDir(name string) error
}

// OS is the real filesystem.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }

// SyncDir fsyncs the directory so renames and creations survive a crash.
// Filesystems that reject directory fsync (some network mounts, Windows)
// are tolerated: the error is dropped, matching the usual best-effort
// semantics of directory durability.
func (OS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

var _ FS = OS{}
