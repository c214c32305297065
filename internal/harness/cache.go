package harness

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/iofault"
)

// CellCacheSchema identifies the on-disk cache entry format. Entries
// with any other schema are ignored (and re-simulated), so the format
// can evolve without a migration step.
const CellCacheSchema = "hydra-cell-cache/v1"

// QuarantineDir is the subdirectory of the cache where corrupt entries
// are moved (never deleted) so operators can inspect what went wrong.
const QuarantineDir = "quarantine"

// cacheEntryFile is the on-disk layout of one cached cell: the content
// hash it is addressed by, the cell key that first computed it (pure
// provenance — many cell keys may share one hash), and the
// JSON-encoded value. Decoding ignores unknown fields, so entries that
// carry fields this layout has dropped still replay.
type cacheEntryFile struct {
	Schema string          `json:"schema"`
	Hash   string          `json:"hash"`
	Key    string          `json:"key"`
	Value  json.RawMessage `json:"value"`
}

// CacheStats counts cache traffic. All fields accumulate over the
// cache's lifetime; use Delta to attribute traffic to one campaign.
type CacheStats struct {
	Hits     int64 // lookups answered without running the cell
	MemHits  int64 // ... from the in-memory tier
	DiskHits int64 // ... decoded from the on-disk tier
	Misses   int64 // lookups that fell through to simulation
	Stores   int64 // newly computed cells recorded

	BytesRead    int64 // on-disk entry bytes decoded on hits
	BytesWritten int64 // on-disk entry bytes written on stores

	CorruptDropped int64 // unreadable disk entries detected (re-simulated)
	StoreErrors    int64 // disk writes that failed (entry stays in memory)
	Quarantined    int64 // corrupt disk entries moved to quarantine/
}

// Delta returns s minus prev, field-wise.
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:           s.Hits - prev.Hits,
		MemHits:        s.MemHits - prev.MemHits,
		DiskHits:       s.DiskHits - prev.DiskHits,
		Misses:         s.Misses - prev.Misses,
		Stores:         s.Stores - prev.Stores,
		BytesRead:      s.BytesRead - prev.BytesRead,
		BytesWritten:   s.BytesWritten - prev.BytesWritten,
		CorruptDropped: s.CorruptDropped - prev.CorruptDropped,
		StoreErrors:    s.StoreErrors - prev.StoreErrors,
		Quarantined:    s.Quarantined - prev.Quarantined,
	}
}

// CellCache is the content-addressed result cache under the campaign
// runner. Cells are addressed by Cell.CacheKey — a canonical hash of
// everything that determines the cell's outcome (see sim.Config
// CacheKey) — so identical work is simulated once and replayed
// everywhere else, within a run and, with a directory, across runs.
//
// Two tiers:
//
//   - the in-memory tier holds decoded values and dedupes identical
//     cells within one process (e.g. the non-secure baseline shared by
//     every figure of `experiments all`);
//   - the optional on-disk tier (one JSON file per entry, written via
//     iofault.WriteAtomic — temp file, fsync, rename, directory fsync)
//     survives across runs. Opening it reads nothing; a lookup reads
//     one entry and writes nothing. A corrupt, truncated or
//     foreign-schema entry is moved to quarantine/ and counted when a
//     lookup reads it — never fatal and never silently discarded.
//
// The disk tier takes no lock of its own: every write lands through a
// uniquely named temp file and an atomic rename.
//
// Safe for concurrent use by campaign workers.
type CellCache struct {
	// Decode rebuilds a value from its stored JSON (results cross the
	// harness as `any`). When nil, on-disk entries cannot be rebuilt and
	// count as misses; the in-memory tier still works.
	Decode func(key string, raw json.RawMessage) (any, error)

	dir  string // "" = memory-only
	fsys iofault.FS

	mu    sync.Mutex
	mem   map[string]any
	stats CacheStats
}

// NewCellCache opens a cache over the real filesystem. See
// NewCellCacheFS.
func NewCellCache(dir string) (*CellCache, error) {
	return NewCellCacheFS(dir, iofault.OS{})
}

// NewCellCacheFS opens a cache whose disk tier performs all IO through
// fsys — iofault.OS{} in production, an iofault.Injector under the
// crash-point sweep. With a non-empty dir the on-disk tier is enabled
// and the directory is created if missing; existing entries are not
// read until a lookup asks for them.
func NewCellCacheFS(dir string, fsys iofault.FS) (*CellCache, error) {
	c := &CellCache{dir: dir, fsys: fsys, mem: make(map[string]any)}
	if dir == "" {
		return c, nil
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: creating cache dir: %w", err)
	}
	return c, nil
}

// Dir returns the on-disk tier's directory ("" when memory-only).
func (c *CellCache) Dir() string { return c.dir }

// Len reports the number of entries in the in-memory tier.
func (c *CellCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Stats returns a snapshot of the cache counters; a nil cache has
// none, so traffic taken as a Delta around campaigns without a cache
// is zero.
func (c *CellCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *CellCache) path(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

// quarantine moves a corrupt entry file into QuarantineDir and bumps
// the counters. Failures to move are still counted as corruption but
// leave the file in place (best effort — quarantine must never be the
// thing that fails a campaign). Callers must not hold mu.
func (c *CellCache) quarantine(name string) {
	moved := false
	if err := c.fsys.MkdirAll(filepath.Join(c.dir, QuarantineDir), 0o755); err == nil {
		moved = c.fsys.Rename(filepath.Join(c.dir, name), filepath.Join(c.dir, QuarantineDir, name)) == nil
	}
	c.mu.Lock()
	c.stats.CorruptDropped++
	if moved {
		c.stats.Quarantined++
	}
	c.mu.Unlock()
}

// Lookup resolves a content hash: the in-memory tier first, then the
// on-disk tier, whose decoded value is promoted into memory. A corrupt
// or undecodable disk entry is counted, quarantined and reported as a
// miss — the caller re-simulates and Store writes a fresh entry.
func (c *CellCache) Lookup(hash string) (any, bool) {
	if hash == "" {
		return nil, false
	}
	c.mu.Lock()
	if v, ok := c.mem[hash]; ok {
		c.stats.Hits++
		c.stats.MemHits++
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()

	if c.dir == "" || c.Decode == nil {
		c.miss()
		return nil, false
	}
	data, err := c.fsys.ReadFile(c.path(hash))
	if err != nil {
		c.miss()
		return nil, false
	}
	var ef cacheEntryFile
	if err := json.Unmarshal(data, &ef); err != nil || ef.Schema != CellCacheSchema || ef.Hash != hash {
		c.quarantine(hash + ".json")
		c.miss()
		return nil, false
	}
	v, err := c.Decode(ef.Key, ef.Value)
	if err != nil {
		c.quarantine(hash + ".json")
		c.miss()
		return nil, false
	}
	c.mu.Lock()
	c.mem[hash] = v
	c.stats.Hits++
	c.stats.DiskHits++
	c.stats.BytesRead += int64(len(data))
	c.mu.Unlock()
	return v, true
}

func (c *CellCache) miss() {
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
}

// Store records a newly computed cell under its content hash. The
// value must be JSON-marshalable when the disk tier is enabled.
// Disk-write failures are counted and returned but leave the in-memory
// entry in place — a full cache disk never fails a campaign.
func (c *CellCache) Store(hash, key string, v any) error {
	if hash == "" {
		return nil
	}
	c.mu.Lock()
	c.mem[hash] = v
	c.stats.Stores++
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}

	raw, err := json.Marshal(v)
	if err != nil {
		c.storeErr()
		return fmt.Errorf("harness: encoding cache entry %q: %w", key, err)
	}
	data, err := json.Marshal(cacheEntryFile{Schema: CellCacheSchema, Hash: hash, Key: key, Value: raw})
	if err != nil {
		c.storeErr()
		return fmt.Errorf("harness: encoding cache entry %q: %w", key, err)
	}
	data = append(data, '\n')
	if err := iofault.WriteAtomic(c.fsys, c.path(hash), data); err != nil {
		c.storeErr()
		return fmt.Errorf("harness: writing cache entry %q: %w", key, err)
	}
	c.mu.Lock()
	c.stats.BytesWritten += int64(len(data))
	c.mu.Unlock()
	return nil
}

func (c *CellCache) storeErr() {
	c.mu.Lock()
	c.stats.StoreErrors++
	c.mu.Unlock()
}
