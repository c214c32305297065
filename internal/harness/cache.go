package harness

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

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
// provenance — many cell keys may share one hash), the wall-clock cost
// of computing it, the last-access time the GC janitor orders eviction
// by, and the JSON-encoded value.
type cacheEntryFile struct {
	Schema      string          `json:"schema"`
	Hash        string          `json:"hash"`
	Key         string          `json:"key"`
	CostNs      int64           `json:"cost_ns"`
	AtimeUnixNs int64           `json:"atime_unix_ns,omitempty"`
	Value       json.RawMessage `json:"value"`
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

	Evicted     int64 // disk entries removed by the byte-budget janitor
	Quarantined int64 // corrupt disk entries moved to quarantine/
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
		Evicted:        s.Evicted - prev.Evicted,
		Quarantined:    s.Quarantined - prev.Quarantined,
	}
}

type memEntry struct {
	value any
	cost  time.Duration
}

// diskEntry is the janitor's view of one on-disk entry: its size in
// bytes and the last-access time eviction is ordered by.
type diskEntry struct {
	size  int64
	atime int64 // unix ns
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
//     survives across runs. Corrupt, truncated or foreign-schema
//     entries are moved to quarantine/ and counted, never fatal and
//     never silently discarded.
//
// With SetMaxBytes the disk tier is budget-capped: a janitor evicts
// least-recently-used entries (by the atime recorded in the envelope,
// refreshed on every disk hit) until the tier fits. The quarantine
// directory does not count against the budget and is never evicted.
//
// The cache also records each computed cell's wall-clock cost — by
// content hash and by cell key — which the campaign runner uses to
// order work longest-processing-time-first (see RunCampaign).
//
// Safe for concurrent use by campaign workers.
type CellCache struct {
	// Decode rebuilds a value from its stored JSON (results cross the
	// harness as `any`). When nil, on-disk entries cannot be rebuilt and
	// count as misses; the in-memory tier still works.
	Decode func(key string, raw json.RawMessage) (any, error)

	dir  string // "" = memory-only
	fsys iofault.FS
	now  func() time.Time // injectable clock for janitor tests

	mu        sync.Mutex
	mem       map[string]memEntry
	costByKey map[string]time.Duration
	stats     CacheStats

	// dmu serializes disk-tier mutations (stores, atime refreshes,
	// eviction, quarantine) and guards the janitor's index, keeping the
	// hot in-memory tier off the disk lock.
	dmu       sync.Mutex
	maxBytes  int64 // 0 = unbounded
	diskIndex map[string]diskEntry
	diskBytes int64
}

// NewCellCache opens a cache over the real filesystem. See
// NewCellCacheFS.
func NewCellCache(dir string) (*CellCache, error) {
	return NewCellCacheFS(dir, iofault.OS{})
}

// NewCellCacheFS opens a cache whose disk tier performs all IO through
// fsys — iofault.OS{} in production, an iofault.Injector under the
// crash-point sweep. With a non-empty dir the on-disk tier is enabled:
// the directory is created if missing, existing entries' recorded
// costs are preloaded so the very first campaign of a process can
// already schedule longest-first from prior runs' timings, and corrupt
// entries found during the scan are quarantined immediately.
func NewCellCacheFS(dir string, fsys iofault.FS) (*CellCache, error) {
	c := &CellCache{
		dir:       dir,
		fsys:      fsys,
		now:       time.Now,
		mem:       make(map[string]memEntry),
		costByKey: make(map[string]time.Duration),
		diskIndex: make(map[string]diskEntry),
	}
	if dir == "" {
		return c, nil
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: creating cache dir: %w", err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("harness: reading cache dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := fsys.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		hash := strings.TrimSuffix(e.Name(), ".json")
		var ef cacheEntryFile
		if json.Unmarshal(data, &ef) != nil || ef.Schema != CellCacheSchema || ef.Hash != hash || ef.Key == "" {
			c.quarantine(e.Name())
			continue
		}
		c.costByKey[ef.Key] = time.Duration(ef.CostNs)
		atime := ef.AtimeUnixNs
		if atime == 0 {
			if info, ierr := e.Info(); ierr == nil {
				atime = info.ModTime().UnixNano()
			}
		}
		c.diskIndex[hash] = diskEntry{size: int64(len(data)), atime: atime}
		c.diskBytes += int64(len(data))
	}
	return c, nil
}

// Dir returns the on-disk tier's directory ("" when memory-only).
func (c *CellCache) Dir() string { return c.dir }

// SetMaxBytes caps the disk tier at n bytes (0 restores unbounded) and
// immediately evicts least-recently-used entries until the tier fits.
// The budget is hard: an entry larger than n on its own is evicted
// right after being written (its value stays in the memory tier).
func (c *CellCache) SetMaxBytes(n int64) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	c.maxBytes = n
	c.evictLocked()
}

// Len reports the number of entries in the in-memory tier.
func (c *CellCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// DiskBytes reports the janitor's accounting of the on-disk tier
// (excluding quarantine).
func (c *CellCache) DiskBytes() int64 {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	return c.diskBytes
}

// Stats returns a snapshot of the cache counters.
func (c *CellCache) Stats() CacheStats {
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
// thing that fails a campaign). Callers must not hold dmu or mu.
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

// dropFromIndex forgets an on-disk entry (it was evicted, quarantined,
// or replaced) and returns its previous accounting entry.
func (c *CellCache) dropFromIndex(hash string) {
	c.dmu.Lock()
	if e, ok := c.diskIndex[hash]; ok {
		c.diskBytes -= e.size
		delete(c.diskIndex, hash)
	}
	c.dmu.Unlock()
}

// evictLocked removes least-recently-used entries until the disk tier
// fits the budget. Ties on atime break by hash so eviction order is
// deterministic. Caller holds dmu.
func (c *CellCache) evictLocked() {
	if c.maxBytes <= 0 {
		return
	}
	var evicted int64
	for c.diskBytes > c.maxBytes && len(c.diskIndex) > 0 {
		victim := ""
		var ve diskEntry
		for h, e := range c.diskIndex {
			if victim == "" || e.atime < ve.atime || (e.atime == ve.atime && h < victim) {
				victim, ve = h, e
			}
		}
		c.fsys.Remove(c.path(victim)) //nolint:errcheck // best effort; accounting moves on
		c.diskBytes -= ve.size
		delete(c.diskIndex, victim)
		evicted++
	}
	if evicted > 0 {
		c.mu.Lock()
		c.stats.Evicted += evicted
		c.mu.Unlock()
	}
}

// Lookup resolves a content hash: the in-memory tier first, then the
// on-disk tier (whose decoded value is promoted into memory and whose
// recorded atime is refreshed for the janitor). A corrupt or
// undecodable disk entry is counted, quarantined and reported as a
// miss — the caller re-simulates and Store overwrites the entry.
func (c *CellCache) Lookup(hash string) (any, bool) {
	if hash == "" {
		return nil, false
	}
	c.mu.Lock()
	if e, ok := c.mem[hash]; ok {
		c.stats.Hits++
		c.stats.MemHits++
		c.mu.Unlock()
		return e.value, true
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
		c.dropFromIndex(hash)
		c.quarantine(hash + ".json")
		c.miss()
		return nil, false
	}
	v, err := c.Decode(ef.Key, ef.Value)
	if err != nil {
		c.dropFromIndex(hash)
		c.quarantine(hash + ".json")
		c.miss()
		return nil, false
	}
	c.mu.Lock()
	c.mem[hash] = memEntry{value: v, cost: time.Duration(ef.CostNs)}
	if ef.Key != "" {
		c.costByKey[ef.Key] = time.Duration(ef.CostNs)
	}
	c.stats.Hits++
	c.stats.DiskHits++
	c.stats.BytesRead += int64(len(data))
	c.mu.Unlock()
	c.touch(hash, ef)
	return v, true
}

// touch refreshes an entry's recorded atime after a disk hit so the
// janitor's LRU order tracks real access, not just store order. Best
// effort: a failed rewrite leaves the old (still valid) entry.
func (c *CellCache) touch(hash string, ef cacheEntryFile) {
	ef.AtimeUnixNs = c.now().UnixNano()
	data, err := json.Marshal(ef)
	if err != nil {
		return
	}
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if _, ok := c.diskIndex[hash]; !ok {
		return // evicted or quarantined since the read; don't resurrect
	}
	if err := iofault.WriteAtomic(c.fsys, c.path(hash), append(data, '\n')); err != nil {
		return
	}
	old := c.diskIndex[hash]
	c.diskBytes += int64(len(data)) + 1 - old.size
	c.diskIndex[hash] = diskEntry{size: int64(len(data)) + 1, atime: ef.AtimeUnixNs}
	c.evictLocked()
}

func (c *CellCache) miss() {
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
}

// Cost returns the recorded wall-clock cost for a cell: exact when the
// content hash was computed before (this process or, with a disk tier,
// a prior run), otherwise the last cost recorded under the same cell
// key (same target/variant/workload at different knobs — the right
// prior for LPT ordering when a sweep's parameters change).
func (c *CellCache) Cost(hash, key string) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem[hash]; ok && e.cost > 0 {
		return e.cost, true
	}
	if d, ok := c.costByKey[key]; ok && d > 0 {
		return d, true
	}
	return 0, false
}

// SeedCosts preloads per-cell-key wall-clock costs into the LPT
// scheduler's recorded-cost table without touching the value tiers.
// This is how a prior campaign's run report — which records ElapsedSec
// for every cell, not just the cacheable ones — becomes scheduling
// data for the next run (cmd/experiments -costs-from). Non-positive
// costs are ignored; existing entries are overwritten, on the theory
// that the caller is feeding fresher timings.
func (c *CellCache) SeedCosts(costs map[string]time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, d := range costs {
		if key != "" && d > 0 {
			c.costByKey[key] = d
		}
	}
}

// Store records a newly computed cell under its content hash, with the
// wall-clock cost of the attempt that produced it. The value must be
// JSON-marshalable when the disk tier is enabled. Disk-write failures
// are counted and returned but leave the in-memory entry in place —
// a full cache disk never fails a campaign. When a byte budget is set,
// the janitor runs after the write.
func (c *CellCache) Store(hash, key string, v any, cost time.Duration) error {
	if hash == "" {
		return nil
	}
	c.mu.Lock()
	c.mem[hash] = memEntry{value: v, cost: cost}
	if key != "" {
		c.costByKey[key] = cost
	}
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
	atime := c.now().UnixNano()
	data, err := json.Marshal(cacheEntryFile{
		Schema: CellCacheSchema, Hash: hash, Key: key, CostNs: int64(cost),
		AtimeUnixNs: atime, Value: raw,
	})
	if err != nil {
		c.storeErr()
		return fmt.Errorf("harness: encoding cache entry %q: %w", key, err)
	}
	c.dmu.Lock()
	if err := iofault.WriteAtomic(c.fsys, c.path(hash), append(data, '\n')); err != nil {
		c.dmu.Unlock()
		c.storeErr()
		return fmt.Errorf("harness: writing cache entry %q: %w", key, err)
	}
	old := c.diskIndex[hash]
	c.diskBytes += int64(len(data)) + 1 - old.size
	c.diskIndex[hash] = diskEntry{size: int64(len(data)) + 1, atime: atime}
	c.evictLocked()
	c.dmu.Unlock()
	c.mu.Lock()
	c.stats.BytesWritten += int64(len(data)) + 1
	c.mu.Unlock()
	return nil
}

func (c *CellCache) storeErr() {
	c.mu.Lock()
	c.stats.StoreErrors++
	c.mu.Unlock()
}
