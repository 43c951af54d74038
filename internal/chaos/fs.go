package chaos

// Storage-level fault injection: a vfs.FS wrapper whose files misbehave on
// a deterministic, seeded schedule — the disk sibling of the oracle and
// connection injectors. The persistent store (internal/store) must either
// absorb an injected fault (degrade to memory-only, keep the learn
// byte-identical) or surface it on reopen (valid-prefix recovery, reported
// corruption) — never panic, never silently serve a wrong byte as a right
// one.
//
// Four fault classes, mirroring how real storage dies:
//
//	torn write   a Write persists only a prefix, then errors — a partial
//	             sector flush, the canonical log-tail tear
//	fsync error  Sync fails; the caller cannot know what reached the platter
//	read rot     a Read returns data with one bit flipped — media decay the
//	             checksum layer must catch
//	crash        after a cumulative byte budget, every mutation fails with
//	             ErrCrashed and only the bytes written before the budget
//	             survive — kill -9 at an exact offset, replayable because
//	             the budget is exact
//
// Every schedule is a pure function of the seed and the call sequence.

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"sync"

	"logicregression/internal/vfs"
)

// ErrCrashed is returned by every mutating operation after the crash point
// is reached: the simulated process is dead and nothing it does reaches the
// disk anymore.
var ErrCrashed = errors.New("chaos: simulated crash")

// ErrInjectedSync is the injected fsync failure.
var ErrInjectedSync = errors.New("chaos: injected fsync error")

// ErrTornWrite is the error paired with a partially applied write.
var ErrTornWrite = errors.New("chaos: injected torn write")

// FSConfig drives filesystem fault injection. The zero value injects
// nothing.
type FSConfig struct {
	// Seed drives the fault schedule.
	Seed int64
	// TornWriteRate is the probability, per Write call, that only a prefix
	// of the buffer is applied and the call errors.
	TornWriteRate float64
	// SyncErrRate is the probability, per Sync call, of an injected error.
	SyncErrRate float64
	// ReadFlipRate is the probability, per Read call, of one flipped bit
	// in the returned data.
	ReadFlipRate float64
	// CrashAtByte, when > 0, kills the filesystem after that many payload
	// bytes have been written across all files: the write in flight
	// applies only up to the budget, and every later mutation returns
	// ErrCrashed. Reads keep working (the "disk" survives; the process
	// does not).
	CrashAtByte int64
}

// FaultFS wraps an inner vfs.FS with injected faults. Bytes that survive a
// fault are really applied to the inner FS, so a test can "reboot" by
// opening a fresh store over the same inner FS.
type FaultFS struct {
	inner vfs.FS

	mu      sync.Mutex
	cfg     FSConfig
	rng     *rand.Rand
	written int64
	crashed bool
}

// NewFaultFS builds a fault-injecting view of inner. A zero config is a
// transparent wrapper.
func NewFaultFS(inner vfs.FS, cfg FSConfig) *FaultFS {
	return &FaultFS{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Crashed reports whether the crash point has been reached.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Written returns the cumulative payload bytes applied so far.
func (f *FaultFS) Written() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

// admitWrite charges n bytes against the crash budget and rolls the torn-
// write schedule. It returns how many bytes may be applied and the error to
// report (nil when the write is whole).
func (f *FaultFS) admitWrite(n int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, ErrCrashed
	}
	allowed, err := n, error(nil)
	if f.cfg.CrashAtByte > 0 && f.written+int64(n) >= f.cfg.CrashAtByte {
		allowed = int(f.cfg.CrashAtByte - f.written)
		f.crashed = true
		err = ErrCrashed
	} else if f.cfg.TornWriteRate > 0 && f.rng.Float64() < f.cfg.TornWriteRate {
		allowed = f.rng.Intn(n + 1)
		err = fmt.Errorf("%w (%d of %d bytes applied)", ErrTornWrite, allowed, n)
	}
	f.written += int64(allowed)
	return allowed, err
}

// rollSync advances the fsync-fault schedule.
func (f *FaultFS) rollSync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	if f.cfg.SyncErrRate > 0 && f.rng.Float64() < f.cfg.SyncErrRate {
		return ErrInjectedSync
	}
	return nil
}

// rollRead decides whether a read of n bytes gets a bit flip, and which.
func (f *FaultFS) rollRead(n int) (flipAt int, flipBit byte, flip bool) {
	if n == 0 {
		return 0, 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.ReadFlipRate > 0 && f.rng.Float64() < f.cfg.ReadFlipRate {
		return f.rng.Intn(n), 1 << uint(f.rng.Intn(8)), true
	}
	return 0, 0, false
}

// mutationGate fails mutating metadata operations after a crash.
func (f *FaultFS) mutationGate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	if err := f.mutationGate(); err != nil {
		return nil, err
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.mutationGate(); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.mutationGate(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if err := f.mutationGate(); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) { return f.inner.Stat(name) }

func (f *FaultFS) SyncDir(name string) error {
	if err := f.rollSync(); err != nil {
		return err
	}
	return f.inner.SyncDir(name)
}

// faultFile is one handle on the fault schedule.
type faultFile struct {
	vfs.File
	fs *FaultFS
}

func (h *faultFile) Write(p []byte) (int, error) {
	allowed, ferr := h.fs.admitWrite(len(p))
	if allowed > 0 {
		n, err := h.File.Write(p[:allowed])
		if err != nil {
			return n, err
		}
	}
	if ferr != nil {
		return allowed, ferr
	}
	return len(p), nil
}

func (h *faultFile) Read(p []byte) (int, error) {
	n, err := h.File.Read(p)
	if n > 0 {
		if at, bit, flip := h.fs.rollRead(n); flip {
			p[at] ^= bit
		}
	}
	return n, err
}

func (h *faultFile) Sync() error {
	if err := h.fs.rollSync(); err != nil {
		return err
	}
	return h.File.Sync()
}

func (h *faultFile) Truncate(size int64) error {
	if err := h.fs.mutationGate(); err != nil {
		return err
	}
	return h.File.Truncate(size)
}

var _ vfs.FS = (*FaultFS)(nil)
