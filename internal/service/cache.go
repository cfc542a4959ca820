package service

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// Cache is the content-addressed result store: confhash key → encoded
// cell result. Entries are immutable once stored (a key is a hash of
// everything that determines the result, so there is nothing to
// update) and live for the daemon's lifetime — a simulation cell is a
// few hundred bytes, so even a week of sweeps is megabytes.
//
// With a backing log (NewPersistentCache) every Put is also appended
// to an append-only record file, and a restarted daemon replays it so
// persisted cells survive kill -9 — see persist.go for the framing and
// recovery rules.
type Cache struct {
	mu          sync.Mutex
	entries     map[string][]byte
	log         *cacheLog // nil = memory-only
	hits        atomic.Int64
	misses      atomic.Int64
	persistErrs atomic.Int64
	persistErr  error // first append failure, for diagnostics
}

// NewCache returns an empty memory-only cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string][]byte)}
}

// NewPersistentCache opens (or creates) the record log at path,
// replays every intact record, and returns a cache whose Puts are
// appended to the file. A torn or corrupt tail is truncated, not
// fatal; the returned RecoveryInfo says what was kept and dropped.
func NewPersistentCache(path string) (*Cache, RecoveryInfo, error) {
	c := NewCache()
	log, info, err := openCacheLog(path, c.entries)
	if err != nil {
		return nil, info, err
	}
	c.log = log
	return c, info, nil
}

// Get returns the entry for key. It counts nothing: whether a present
// record serves the cell is up to its decoder, so the executor counts
// hits and misses once it runs.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	v, ok := c.entries[key]
	c.mu.Unlock()
	return v, ok
}

// Put stores an entry and, when the cache is persistent, appends it to
// the record log. Storing the same key twice is harmless: both writers
// computed the value from the same config, so the bytes match — and
// the duplicate is not re-appended. A failed append keeps the daemon
// serving from memory; the failure is counted (PersistErrors) rather
// than surfaced per-cell.
func (c *Cache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok && bytes.Equal(old, val) {
		return
	}
	c.entries[key] = val
	if c.log != nil {
		if err := c.log.append(key, val); err != nil {
			if c.persistErr == nil {
				c.persistErr = err
			}
			c.persistErrs.Add(1)
		}
	}
}

// Close releases the backing log (no-op for a memory-only cache).
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.log.Close()
	c.log = nil
	return err
}

// Len returns the number of entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits returns cells served from cache since startup.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns cells that missed since startup.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// PersistErrors returns the number of failed record appends (0 for a
// healthy or memory-only cache).
func (c *Cache) PersistErrors() int64 { return c.persistErrs.Load() }
