package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
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
	if err := c.Store("h1", "k1", cacheVal{N: 7}, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Lookup("h1")
	if !ok || v.(cacheVal).N != 7 {
		t.Fatalf("Lookup = %v, %v; want {7}, true", v, ok)
	}
	if d, ok := c.Cost("h1", "k1"); !ok || d != 3*time.Second {
		t.Fatalf("Cost = %v, %v; want 3s, true", d, ok)
	}
	// Cost by cell key alone: the right prior when knobs changed.
	if d, ok := c.Cost("other-hash", "k1"); !ok || d != 3*time.Second {
		t.Fatalf("Cost by key = %v, %v; want 3s, true", d, ok)
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
	if err := c1.Store("hash-a", "key-a", cacheVal{N: 42}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if c1.Stats().BytesWritten == 0 {
		t.Fatal("disk store wrote no bytes")
	}

	// A fresh instance over the same directory replays the entry and
	// already knows its cost for scheduling.
	c2, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2.Decode = decodeCacheVal
	if d, ok := c2.Cost("", "key-a"); !ok || d != 2*time.Second {
		t.Fatalf("preloaded cost = %v, %v; want 2s, true", d, ok)
	}
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
	if err := c1.Store("h", "k", cacheVal{N: 1}, time.Second); err != nil {
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
// truncated or garbage on-disk entries — and entries whose recorded
// hash does not match their filename, e.g. a partially overwritten
// file — are dropped and counted, never fatal, and a later Store
// repairs them.
func TestCellCacheCorruptEntriesDiscarded(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	seed.Decode = decodeCacheVal
	for _, h := range []string{"trunc", "garbage", "wronghash", "badvalue"} {
		if err := seed.Store(h, "k-"+h, cacheVal{N: 9}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt each entry a different way.
	full, err := os.ReadFile(filepath.Join(dir, "trunc.json"))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string][]byte{
		"trunc":     full[:len(full)/2],
		"garbage":   []byte("\x00\xffnot json at all"),
		"wronghash": []byte(`{"schema":"hydra-cell-cache/v1","hash":"someone-else","key":"k","cost_ns":1,"value":{"n":1}}`),
		"badvalue":  []byte(`{"schema":"hydra-cell-cache/v1","hash":"badvalue","key":"k","cost_ns":1,"value":"not-an-object"}`),
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
	if s.CorruptDropped != int64(len(corrupt)) {
		t.Fatalf("CorruptDropped = %d, want %d (%+v)", s.CorruptDropped, len(corrupt), s)
	}
	// Re-simulation repairs the entry in place.
	if err := c.Store("trunc", "k-trunc", cacheVal{N: 10}, time.Second); err != nil {
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

// TestCampaignCacheHitsSkipRun pins the tentpole behaviour: a cell
// whose CacheKey resolves settles without Run ever being called, its
// status says so, and OnCellDone still observes it.
func TestCampaignCacheHitsSkipRun(t *testing.T) {
	cache, err := NewCellCache("")
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store("hit-hash", "warm/a", cacheVal{N: 1}, time.Second); err != nil {
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
// cells run in descending estimated-cost order regardless of input
// order, and recorded costs from a prior campaign override estimates.
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
	if _, err := RunCampaign(context.Background(), cells, Options{Workers: 1, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[big mid small]" {
		t.Fatalf("static LPT order = %v, want [big mid small]", order)
	}

	// Recorded wall-clock beats the static estimate: pretend "r/small"
	// actually took longest last time. The prior run stored different
	// content hashes (other knobs), so the costs arrive via the
	// cost-by-cell-key channel and the cells still have to run.
	cache3, err := NewCellCache("")
	if err != nil {
		t.Fatal(err)
	}
	cache3.Store("old-hash-small", "r/small", cacheVal{}, 10*time.Second)
	cache3.Store("old-hash-big", "r/big", cacheVal{}, time.Second)
	order = nil
	cells2 := []Cell{
		{Key: "r/big", CacheKey: "new-hash-big", EstCost: 5, Run: mk("r/big", 0).Run},
		{Key: "r/small", CacheKey: "new-hash-small", EstCost: 1, Run: mk("r/small", 0).Run},
	}
	if _, err := RunCampaign(context.Background(), cells2, Options{Workers: 1, Cache: cache3}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[r/small r/big]" {
		t.Fatalf("recorded-cost order = %v, want [r/small r/big] (recorded 10s beats EstCost 5)", order)
	}
}

// TestCampaignRetriedCellNotCached pins the purity rule: callers may
// perturb retried cells (exp reseeds them), so a value computed on
// attempt > 0 must not be stored under the attempt-0 content hash.
func TestCampaignRetriedCellNotCached(t *testing.T) {
	cache, err := NewCellCache("")
	if err != nil {
		t.Fatal(err)
	}
	attempts := 0
	cells := []Cell{{
		Key: "flaky", CacheKey: "flaky-hash",
		Run: func(_ context.Context, env Env) (any, error) {
			attempts++
			if env.Attempt == 0 {
				return nil, fmt.Errorf("transient")
			}
			return cacheVal{N: 1}, nil
		},
	}}
	res, err := RunCampaign(context.Background(), cells, Options{Retries: 1, Backoff: time.Millisecond, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || attempts != 2 {
		t.Fatalf("retry did not succeed: %+v (attempts %d)", res[0], attempts)
	}
	if _, ok := cache.Lookup("flaky-hash"); ok {
		t.Fatal("retried cell's value entered the cache under the original hash")
	}
}
