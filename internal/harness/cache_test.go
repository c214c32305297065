package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/iofault"
)

// cacheVal mirrors the harness contract: values cross as `any` and
// must be JSON-marshalable for the disk tier.
type cacheVal struct {
	N int `json:"n"`
}

func decodeCacheVal(key string, raw json.RawMessage) (any, error) {
	var v cacheVal
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return v, nil
}

func TestCellCacheMemoryTier(t *testing.T) {
	c, err := NewCellCache("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup("h1"); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Store("h1", "k1", cacheVal{N: 7}); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Lookup("h1")
	if !ok || v.(cacheVal).N != 7 {
		t.Fatalf("Lookup = %v, %v; want {7}, true", v, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.MemHits != 1 || s.Misses != 1 || s.Stores != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCellCacheDiskTierSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Decode = decodeCacheVal
	if err := c1.Store("hash-a", "key-a", cacheVal{N: 42}); err != nil {
		t.Fatal(err)
	}
	if c1.Stats().BytesWritten == 0 {
		t.Fatal("disk store wrote no bytes")
	}

	// A fresh instance over the same directory replays the entry.
	c2, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2.Decode = decodeCacheVal
	v, ok := c2.Lookup("hash-a")
	if !ok || v.(cacheVal).N != 42 {
		t.Fatalf("disk lookup = %v, %v; want {42}, true", v, ok)
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.BytesRead == 0 {
		t.Fatalf("stats after disk hit = %+v", s)
	}
	// Promoted to memory: the second lookup is a mem hit.
	if _, ok := c2.Lookup("hash-a"); !ok {
		t.Fatal("promoted entry missing")
	}
	if s := c2.Stats(); s.MemHits != 1 {
		t.Fatalf("promotion missing: %+v", s)
	}
}

func TestCellCacheWithoutDecodeSkipsDisk(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Decode = decodeCacheVal
	if err := c1.Store("h", "k", cacheVal{N: 1}); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Lookup("h"); ok {
		t.Fatal("disk entry decoded without a Decode hook")
	}
}

// TestCellCacheCorruptEntriesDiscarded pins the resilience contract:
// truncated, garbage or foreign-schema on-disk entries — and entries
// whose recorded hash does not match their filename, e.g. a partially
// overwritten file — are dropped and counted, never fatal, and a later
// Store repairs them.
func TestCellCacheCorruptEntriesDiscarded(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	seed.Decode = decodeCacheVal
	for _, h := range []string{"trunc", "garbage", "wronghash", "wrongschema", "badvalue"} {
		if err := seed.Store(h, "k-"+h, cacheVal{N: 9}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt each entry a different way.
	full, err := os.ReadFile(filepath.Join(dir, "trunc.json"))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string][]byte{
		"trunc":       full[:len(full)/2],
		"garbage":     []byte("\x00\xffnot json at all"),
		"wronghash":   []byte(`{"schema":"hydra-cell-cache/v1","hash":"someone-else","key":"k","value":{"n":1}}`),
		"wrongschema": []byte(`{"schema":"hydra-cell-cache/v999","hash":"wrongschema","key":"k","value":{"n":1}}`),
		"badvalue":    []byte(`{"schema":"hydra-cell-cache/v1","hash":"badvalue","key":"k","value":"not-an-object"}`),
	}
	for name, data := range corrupt {
		if err := os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c, err := NewCellCache(dir) // opening over corrupt entries must not error
	if err != nil {
		t.Fatal(err)
	}
	c.Decode = decodeCacheVal
	for name := range corrupt {
		if _, ok := c.Lookup(name); ok {
			t.Errorf("corrupt entry %q served as a hit", name)
		}
	}
	s := c.Stats()
	if s.CorruptDropped != int64(len(corrupt)) || s.Quarantined != int64(len(corrupt)) {
		t.Fatalf("CorruptDropped = %d, Quarantined = %d, want %d each (%+v)",
			s.CorruptDropped, s.Quarantined, len(corrupt), s)
	}
	// Re-simulation repairs the entry in place.
	if err := c.Store("trunc", "k-trunc", cacheVal{N: 10}); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2.Decode = decodeCacheVal
	if v, ok := c2.Lookup("trunc"); !ok || v.(cacheVal).N != 10 {
		t.Fatalf("repaired entry = %v, %v; want {10}, true", v, ok)
	}
}

// opKinds opens a cache over dir through an injector that records the
// kind of every IO operation, runs fn against it, and returns the
// kinds the open did and those fn did, in order.
func opKinds(t *testing.T, dir string, fn func(*CellCache)) (open, ops []string) {
	t.Helper()
	var kinds []string
	inj := iofault.NewInjector(iofault.OS{})
	inj.Plan = func(op iofault.Op) iofault.Fault {
		kinds = append(kinds, op.Kind)
		return iofault.FaultNone
	}
	c, err := NewCellCacheFS(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	c.Decode = decodeCacheVal
	open, kinds = kinds, nil
	fn(c)
	return open, kinds
}

// TestCellCacheOpenReadsNoEntries pins that opening a directory of
// entries costs one MkdirAll: no directory listing, no entry read.
func TestCellCacheOpenReadsNoEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c.Store(fmt.Sprintf("h%d", i), "k", cacheVal{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if open, _ := opKinds(t, dir, func(*CellCache) {}); fmt.Sprint(open) != "[mkdirall]" {
		t.Fatalf("opening a cache of 8 entries did IO %v, want [mkdirall]", open)
	}
}

// TestCellCacheDiskHitWritesNothing pins that a disk hit is one read:
// no rewrite of the entry, and so no fsync on the read path.
func TestCellCacheDiskHitWritesNothing(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("h", "k", cacheVal{N: 3}); err != nil {
		t.Fatal(err)
	}
	_, got := opKinds(t, dir, func(c *CellCache) {
		if v, ok := c.Lookup("h"); !ok || v.(cacheVal).N != 3 {
			t.Fatalf("disk lookup = %v, %v; want {3}, true", v, ok)
		}
	})
	if fmt.Sprint(got) != "[readfile]" {
		t.Fatalf("one disk hit did IO %v, want [readfile]", got)
	}
}

// TestCellCacheConcurrentStores pins that the disk tier needs no lock
// of its own: goroutines storing the same and distinct hashes at once
// (run it under -race) leave every entry readable from a fresh
// instance.
func TestCellCacheConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := c.Store(fmt.Sprintf("h%d", i), "k", cacheVal{N: i}); err != nil {
					t.Error(err)
				}
				if err := c.Store(fmt.Sprintf("g%d-%d", g, i), "k", cacheVal{N: i}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	c2, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2.Decode = decodeCacheVal
	for i := 0; i < 8; i++ {
		for _, h := range []string{fmt.Sprintf("h%d", i), fmt.Sprintf("g%d-%d", i%4, i)} {
			if v, ok := c2.Lookup(h); !ok || v.(cacheVal).N != i {
				t.Fatalf("entry %s = %v, %v; want {%d}, true", h, v, ok, i)
			}
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 8+4*8 {
		t.Fatalf("directory holds %d files (err %v), want %d entries and no temp litter", len(ents), err, 8+4*8)
	}
}

// TestCellCacheReplaysEntriesWithUnknownFields pins the entry format's
// compatibility rule: fields the layout does not know — such as the
// cost and access time older entries recorded — are ignored, so the
// entry replays as a disk hit.
func TestCellCacheReplaysEntriesWithUnknownFields(t *testing.T) {
	dir := t.TempDir()
	entry := `{"schema":"hydra-cell-cache/v1","hash":"old","key":"k","cost_ns":1500000,` +
		`"atime_unix_ns":1700000000000000000,"value":{"n":5}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "old.json"), []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Decode = decodeCacheVal
	if v, ok := c.Lookup("old"); !ok || v.(cacheVal).N != 5 {
		t.Fatalf("lookup = %v, %v; want {5}, true", v, ok)
	}
	if s := c.Stats(); s.DiskHits != 1 || s.CorruptDropped != 0 {
		t.Fatalf("stats = %+v, want one disk hit and no corruption", s)
	}
}

// TestCampaignCacheHitsSkipRun pins the tentpole behaviour: a cell
// whose CacheKey resolves settles without Run ever being called, its
// status says so, and OnCellDone still observes it.
func TestCampaignCacheHitsSkipRun(t *testing.T) {
	cache, err := NewCellCache("")
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store("hit-hash", "warm/a", cacheVal{N: 1}); err != nil {
		t.Fatal(err)
	}
	var runs, done sync.Map
	mkRun := func(key string) func(context.Context, Env) (any, error) {
		return func(context.Context, Env) (any, error) {
			runs.Store(key, true)
			return cacheVal{N: 2}, nil
		}
	}
	cells := []Cell{
		{Key: "c/hit", CacheKey: "hit-hash", Run: mkRun("c/hit")},
		{Key: "c/miss", CacheKey: "miss-hash", Run: mkRun("c/miss")},
		{Key: "c/uncached", Run: mkRun("c/uncached")},
	}
	res, err := RunCampaign(context.Background(), cells, Options{
		Cache:      cache,
		OnCellDone: func(r CellResult) { done.Store(r.Key, r.Cached) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Cached || res[0].Value.(cacheVal).N != 1 {
		t.Fatalf("hit cell = %+v, want cached {1}", res[0])
	}
	if _, ran := runs.Load("c/hit"); ran {
		t.Fatal("cache hit still executed Run")
	}
	for _, key := range []string{"c/miss", "c/uncached"} {
		if _, ran := runs.Load(key); !ran {
			t.Fatalf("%s did not run", key)
		}
	}
	if res[1].Cached || res[2].Cached {
		t.Fatalf("miss/uncached wrongly marked cached: %+v %+v", res[1], res[2])
	}
	for _, key := range []string{"c/hit", "c/miss", "c/uncached"} {
		if _, ok := done.Load(key); !ok {
			t.Fatalf("OnCellDone missed %s", key)
		}
	}
	// The miss was stored: an identical follow-up campaign is all hits.
	res2, err := RunCampaign(context.Background(), cells[:2], Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !res2[0].Cached || !res2[1].Cached {
		t.Fatalf("second campaign not fully cached: %+v %+v", res2[0], res2[1])
	}
}

// TestCampaignLPTOrder pins the scheduling contract: with one worker,
// cells run in descending Cell.EstCost order regardless of input
// order, with or without a cache.
func TestCampaignLPTOrder(t *testing.T) {
	cache, err := NewCellCache("")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	mk := func(key string, est float64) Cell {
		return Cell{
			Key: key, CacheKey: "hash-" + key, EstCost: est,
			Run: func(context.Context, Env) (any, error) {
				mu.Lock()
				order = append(order, key)
				mu.Unlock()
				return cacheVal{}, nil
			},
		}
	}
	cells := []Cell{mk("small", 1), mk("big", 5), mk("mid", 3)}
	for _, c := range []*CellCache{cache, nil} {
		order = nil
		if _, err := RunCampaign(context.Background(), cells, Options{Workers: 1, Cache: c}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(order) != "[big mid small]" {
			t.Fatalf("LPT order with cache %v = %v, want [big mid small]", c != nil, order)
		}
	}
}

// TestCampaignFailedCellNotCached pins how a failed cell is recomputed:
// its one run stores nothing, so a rerun over the same cache runs it
// again, and only a success lands in the cache.
func TestCampaignFailedCellNotCached(t *testing.T) {
	cache, err := NewCellCache("")
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	cells := []Cell{{
		Key: "flaky", CacheKey: "flaky-hash",
		Run: func(context.Context, Env) (any, error) {
			runs++
			if runs == 1 {
				return cacheVal{N: 1}, fmt.Errorf("transient")
			}
			return cacheVal{N: 2}, nil
		},
	}}
	res, err := RunCampaign(context.Background(), cells, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || res[0].Value != nil || runs != 1 {
		t.Fatalf("failed cell = %+v after %d runs, want one failed run and no value", res[0], runs)
	}
	if s := cache.Stats(); s.Stores != 0 || cache.Len() != 0 {
		t.Fatalf("failed cell stored a value: %+v, %d entries", s, cache.Len())
	}
	res, err = RunCampaign(context.Background(), cells, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[0].Cached || runs != 2 {
		t.Fatalf("rerun = %+v after %d runs, want the cell recomputed", res[0], runs)
	}
	if v, ok := cache.Lookup("flaky-hash"); !ok || v.(cacheVal).N != 2 {
		t.Fatalf("cache after rerun = %v, %v; want the recomputed {2}", v, ok)
	}
}
