package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path"

	"logicregression/internal/vfs"
)

// RecoveryInfo summarizes what opening the store's logs found on disk.
type RecoveryInfo struct {
	// Records is the total valid records replayed.
	Records int64
	// Entries is the live (deduplicated) memo entry count after replay.
	Entries int
	// TruncatedBytes is the size of the torn tails repaired — the normal
	// wreckage of a crash mid-append.
	TruncatedBytes int64
	// Corrupt reports mid-file corruption: an invalid region that is NOT a
	// torn tail (valid records exist past it). The valid prefix is still
	// used; the loss is reported, not silently absorbed.
	Corrupt bool
	// CorruptDetail describes the corruption when Corrupt is true.
	CorruptDetail string
}

// recordLog is one file of framed records, the shape of both the memo log
// and the circuit index. It replays, repairs, appends, syncs and rewrites
// the file; each user keeps its own payload decoder and in-memory map.
type recordLog struct {
	fs   vfs.FS
	name string
	f    vfs.File // open for appends
	size int64
}

// openLog opens name for appends, creating it if needed, and first replays
// its valid prefix through decode. At the first invalid record, scanTail
// tells a torn tail — the residue of a crash mid-append, with no valid
// record after it — from mid-file corruption. A torn tail is truncated in
// place, fsynced and counted in info.TruncatedBytes; corruption, and a
// payload decode rejects, set info.Corrupt with the detail and keep the
// prefix before the damage.
func openLog(fsys vfs.FS, name string, info *RecoveryInfo, decode func(payload []byte) error) (*recordLog, error) {
	f, err := fsys.OpenFile(name, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", name, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: read %s: %w", name, err)
	}
	sc := recordScanner{data: data}
	for {
		good := sc.off
		payload, err := sc.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err == nil {
			err = decode(payload)
		} else if !scanTail(data[good:]) {
			// A torn tail: cut it, so the next append starts at a record
			// boundary.
			info.TruncatedBytes += int64(len(data) - good)
			terr := f.Truncate(int64(good))
			if terr == nil {
				terr = f.Sync()
			}
			if terr != nil {
				f.Close()
				return nil, fmt.Errorf("store: repair torn tail of %s: %w", name, terr)
			}
			data = data[:good]
			break
		}
		if err != nil {
			// Never parse past the damage: re-synchronized framing cannot
			// be trusted.
			info.Corrupt = true
			info.CorruptDetail = fmt.Sprintf("%s: %v (%d bytes after the valid prefix dropped)", name, err, len(data)-good)
			break
		}
		info.Records++
	}
	return &recordLog{fs: fsys, name: name, f: f, size: int64(len(data))}, nil
}

// append writes one framed record with a single write.
func (l *recordLog) append(payload []byte) error {
	rec := appendRecord(nil, payload)
	if _, err := l.f.Write(rec); err != nil {
		return fmt.Errorf("store: append to %s: %w", l.name, err)
	}
	l.size += int64(len(rec))
	return nil
}

func (l *recordLog) sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", l.name, err)
	}
	return nil
}

// rewrite replaces the log with records (framed, back to back) and reopens
// it for appends. A crash at any point leaves the old log or the new one,
// whole.
func (l *recordLog) rewrite(records []byte) error {
	if err := writeFileAtomic(l.fs, l.name, records); err != nil {
		return err
	}
	f, err := l.fs.OpenFile(l.name, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen %s: %w", l.name, err)
	}
	l.f.Close() // every record of the replaced file is in the new one
	l.f, l.size = f, int64(len(records))
	return nil
}

func (l *recordLog) close() error { return l.f.Close() }

// writeFileAtomic publishes data under name: it writes name+".tmp",
// fsyncs it, renames it over name and syncs the directory, so a reader
// never sees a half-written file under name.
func writeFileAtomic(fsys vfs.FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, name)
	}
	if err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	// Directory durability is best effort, as vfs.OS.SyncDir documents.
	fsys.SyncDir(path.Dir(name))
	return nil
}
