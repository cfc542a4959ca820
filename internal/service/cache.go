package service

import (
	"bytes"
	"sync"
	"sync/atomic"

	"suss/internal/runner"
)

// Cache is the content-addressed result store: confhash key → encoded
// cell result, immutable once stored and kept for the daemon's lifetime;
// a fig11 record also keeps its parsed value (parsedCell). With a backing
// log (NewPersistentCache, persist.go) every Put is also appended to a
// file that a restarted daemon replays.
type Cache struct {
	mu          sync.Mutex
	entries     map[string]record
	cells       []cellValue // the current block of kept fig11 values
	log         *cacheLog   // nil = memory-only
	hits        atomic.Int64
	misses      atomic.Int64
	persistErrs atomic.Int64
	persistErr  error // first append failure, for diagnostics
}

// record is one entry: the stored bytes and, once a hit has parsed a
// fig11 record, its value.
type record struct {
	raw  []byte
	cell *cellValue
}

// cellValue is a fig11 record's value, without the job a hit fills in.
type cellValue struct {
	runner.DownloadResult
	err error
}

// NewCache returns an empty memory-only cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]record)}
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
	e, ok := c.entries[key]
	c.mu.Unlock()
	return e.raw, ok
}

// parsedCell returns the value of key's fig11 record. The first hit parses
// the stored bytes and keeps the value (in blocks of 256), so a record
// is parsed once per daemon lifetime; one that does not parse is a miss
// until a Put replaces it.
func (c *Cache) parsedCell(key string) (*cellValue, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok && e.cell == nil {
		r, err := parseJobCell(runner.Job{}, e.raw)
		if err != nil {
			return nil, false
		}
		if len(c.cells) == cap(c.cells) {
			c.cells = make([]cellValue, 0, 256)
		}
		c.cells = append(c.cells, cellValue{r.DownloadResult, r.Err})
		e.cell = &c.cells[len(c.cells)-1]
		c.entries[key] = e
	}
	return e.cell, ok
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
	if old, ok := c.entries[key]; ok && bytes.Equal(old.raw, val) {
		return
	}
	c.entries[key] = record{raw: val}
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
