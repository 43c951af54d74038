package store

// The circuit store: content-addressed netlist blobs plus an append-only
// index mapping learn keys to blob hashes. A blob is the canonical netlist
// serialization of a learned circuit, named by its SHA-256; the name IS the
// checksum, so a read that hashes clean is exactly the bytes that were
// written, and identical circuits learned under different keys share one
// blob. The index is a recordLog like the memo log, with last-wins replay,
// so re-learning a key simply appends a newer mapping.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"sync"

	"logicregression/internal/check"
	"logicregression/internal/circuit"
	"logicregression/internal/vfs"
)

const circuitEntryTag = 'c'

// ErrCorruptBlob reports a circuit object whose bytes no longer hash to
// their name — media rot the content address catches.
var ErrCorruptBlob = errors.New("store: circuit blob checksum mismatch")

// encodeCircuitEntry packs one index record: tag, uvarint key length, key,
// 32 raw hash bytes.
func encodeCircuitEntry(key string, hash [sha256.Size]byte) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+len(key)+sha256.Size)
	buf = append(buf, circuitEntryTag)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	return append(buf, hash[:]...)
}

func decodeCircuitEntry(p []byte) (key string, hash [sha256.Size]byte, err error) {
	if len(p) == 0 || p[0] != circuitEntryTag {
		return "", hash, fmt.Errorf("store: circuit entry has bad tag")
	}
	p = p[1:]
	klen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) != klen+sha256.Size {
		return "", hash, fmt.Errorf("store: circuit entry length mismatch")
	}
	key = string(p[n : n+int(klen)])
	copy(hash[:], p[n+int(klen):])
	return key, hash, nil
}

// circuitStore is the blob + index pair. All index access is under mu;
// blob writes are idempotent (content-addressed) and need no lock beyond
// the atomic rename.
type circuitStore struct {
	fs   vfs.FS
	root string

	mu    sync.Mutex
	index *recordLog
	byKey map[string]string // learn key -> hex blob hash
}

func (c *circuitStore) objectDir() string { return path.Join(c.root, "objects") }
func (c *circuitStore) objectName(hexHash string) string {
	return path.Join(c.objectDir(), hexHash)
}

// openCircuitStore replays the index, repairing a torn tail the same way
// the memo log does, and opens it for appends.
func openCircuitStore(fsys vfs.FS, root string, info *RecoveryInfo) (*circuitStore, error) {
	c := &circuitStore{fs: fsys, root: root, byKey: make(map[string]string)}
	if err := fsys.MkdirAll(c.objectDir(), 0o755); err != nil {
		return nil, fmt.Errorf("store: create object dir: %w", err)
	}
	index, err := openLog(fsys, path.Join(root, "circuits.log"), info, func(payload []byte) error {
		key, hash, err := decodeCircuitEntry(payload)
		if err == nil {
			c.byKey[key] = hex.EncodeToString(hash[:])
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	c.index = index
	return c, nil
}

// put stores a circuit under a learn key: blob first (written atomically,
// so the index never points at a half-written object), then the index
// record, fsynced immediately — circuit saves are rare and each one is a
// whole learn's work.
func (c *circuitStore) put(key string, circ *circuit.Circuit) error {
	var blob bytes.Buffer
	if err := circuit.WriteNetlist(&blob, circ); err != nil {
		return fmt.Errorf("store: serialize circuit: %w", err)
	}
	hash := sha256.Sum256(blob.Bytes())
	hexHash := hex.EncodeToString(hash[:])
	objName := c.objectName(hexHash)
	if _, err := c.fs.Stat(objName); err != nil {
		if err := writeFileAtomic(c.fs, objName, blob.Bytes()); err != nil {
			return err
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey[key] == hexHash {
		return nil // identical mapping already durable
	}
	if err := c.index.append(encodeCircuitEntry(key, hash)); err != nil {
		return err
	}
	if err := c.index.sync(); err != nil {
		return err
	}
	c.byKey[key] = hexHash
	return nil
}

// get loads the circuit stored under a learn key. The blob's bytes are
// re-hashed against its name before parsing; rot yields ErrCorruptBlob,
// never a silently wrong circuit.
func (c *circuitStore) get(key string) (*circuit.Circuit, error) {
	c.mu.Lock()
	hexHash, ok := c.byKey[key]
	c.mu.Unlock()
	if !ok {
		return nil, nil
	}
	f, err := c.fs.OpenFile(c.objectName(hexHash), os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("store: open blob %s: %w", hexHash[:12], err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("store: read blob %s: %w", hexHash[:12], err)
	}
	if got := sha256.Sum256(data); hex.EncodeToString(got[:]) != hexHash {
		return nil, fmt.Errorf("%w: object %s", ErrCorruptBlob, hexHash[:12])
	}
	circ, err := check.ReadCircuit(bytes.NewReader(data), "netlist")
	if err != nil {
		return nil, fmt.Errorf("store: parse blob %s: %w", hexHash[:12], err)
	}
	return circ, nil
}

func (c *circuitStore) entryCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

func (c *circuitStore) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index.close()
}
