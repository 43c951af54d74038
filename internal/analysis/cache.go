package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The analysis cache: one content-addressed entry per analyzed unit,
// holding its diagnostics and its exported facts. The entry key is a hash
// over everything the unit's result can depend on —
//
//	(driver version, toolchain version, platform, analyzer set,
//	 import path, source file contents, and per direct dependency:
//	 its published cache key + transitive fact hash when it is a unit
//	 of the run, or a recursive source hash when it is not)
//
// — so a warm run replays byte-identical diagnostics without parsing,
// type-checking, or even resolving export data, and an edit to a
// dependency's source or to any fact it (transitively) exports re-analyzes
// exactly the units that could observe the change. Entries are immutable
// once written: a key collision is a content match by construction, so
// concurrent writers racing on one key are harmless.

// A Cache is a directory of immutable analysis entries.
type Cache struct {
	Dir string
}

// OpenCache returns a cache rooted at dir, creating it if needed.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("analysis cache: %v", err)
	}
	return &Cache{Dir: dir}, nil
}

// cacheEntry is the stored result of one unit analysis.
type cacheEntry struct {
	ImportPath  string          `json:"importPath"`
	Diagnostics []Diagnostic    `json:"diagnostics"`
	Facts       json.RawMessage `json:"facts"`
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.Dir, key+".json")
}

// get loads the entry for key, reporting a miss for absent or unreadable
// entries (a corrupt entry is re-derived, never trusted).
func (c *Cache) get(key string) (*cacheEntry, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	return &e, true
}

// put stores the entry under key, atomically via rename so readers never
// see a torn write. Errors are deliberately dropped: a failed cache write
// costs a future re-analysis, nothing else.
func (c *Cache) put(key string, e *cacheEntry) {
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.Dir, "tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, c.path(key)); err != nil {
		os.Remove(name)
	}
}

// A hasher accumulates the fields of a cache key. Every Add is
// length-prefixed so field boundaries cannot alias.
type hasher struct {
	h interface {
		io.Writer
		Sum([]byte) []byte
	}
}

func newHasher() *hasher { return &hasher{h: sha256.New()} }

func (h *hasher) Add(field string, data []byte) {
	fmt.Fprintf(h.h, "%s:%d\n", field, len(data))
	h.h.Write(data)
}

func (h *hasher) AddString(field, s string) { h.Add(field, []byte(s)) }

func (h *hasher) Sum() string { return hex.EncodeToString(h.h.Sum(nil)) }

// A fileHashCache memoizes content hashes per file for one driver run.
// Export-data files are shared by every dependent unit, so hashing them
// once instead of once per dependent is most of the warm-path win.
type fileHashCache struct {
	mu sync.Mutex
	m  map[string]string
}

func newFileHashCache() *fileHashCache {
	return &fileHashCache{m: make(map[string]string)}
}

// hash returns the hex content hash of path, computing it at most once.
func (c *fileHashCache) hash(path string) (string, error) {
	c.mu.Lock()
	if sum, ok := c.m[path]; ok {
		c.mu.Unlock()
		return sum, nil
	}
	c.mu.Unlock()

	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	hexSum := hex.EncodeToString(sum[:])

	c.mu.Lock()
	c.m[path] = hexSum
	c.mu.Unlock()
	return hexSum, nil
}
