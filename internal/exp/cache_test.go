package exp

import (
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newCache(t *testing.T, dir string) *harness.CellCache {
	t.Helper()
	c, err := harness.NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Decode = DecodeResult
	return c
}

func countStatus(cells []obsv.CellStatus, status string) int {
	n := 0
	for _, c := range cells {
		if c.Status == status {
			n++
		}
	}
	return n
}

// TestCachedSweepDeterminism is the tentpole acceptance test: the same
// figure produced without a cache, with a cold disk cache, warm from
// the in-memory tier, and replayed purely from disk by a fresh cache
// instance must format bitwise identically. sim.Result survives the
// JSON round-trip exactly (float64 round-trips per RFC 8785 semantics
// in encoding/json), so a replayed report has no excuse to drift.
func TestCachedSweepDeterminism(t *testing.T) {
	fresh, err := Figure5(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Format()

	dir := t.TempDir()
	cold := fastOptions()
	cold.Cache = newCache(t, dir)
	repCold, err := Figure5(cold)
	if err != nil {
		t.Fatal(err)
	}
	if got := repCold.Format(); got != want {
		t.Fatalf("cold-cache report differs from cacheless run:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if repCold.Cache.Hits != 0 || repCold.Cache.Stores == 0 {
		t.Fatalf("cold run cache traffic = %+v, want 0 hits and >0 stores", repCold.Cache)
	}

	// Warm in-memory tier: same cache, same process.
	warm := fastOptions()
	warm.Cache = cold.Cache
	repWarm, err := Figure5(warm)
	if err != nil {
		t.Fatal(err)
	}
	if got := repWarm.Format(); got != want {
		t.Fatalf("warm-cache report differs:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if repWarm.Cache.Misses != 0 || repWarm.Cache.MemHits == 0 {
		t.Fatalf("warm run cache traffic = %+v, want all memory hits", repWarm.Cache)
	}
	if n := countStatus(repWarm.Cells, obsv.CellCached); n != len(repWarm.Cells) {
		t.Fatalf("%d of %d warm cells marked cached", n, len(repWarm.Cells))
	}

	// Disk tier: a fresh cache instance over the same directory, as a
	// new `experiments -cache-dir` invocation would see it.
	disk := fastOptions()
	disk.Cache = newCache(t, dir)
	repDisk, err := Figure5(disk)
	if err != nil {
		t.Fatal(err)
	}
	if got := repDisk.Format(); got != want {
		t.Fatalf("disk-replayed report differs:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if repDisk.Cache.DiskHits == 0 || repDisk.Cache.Misses != 0 {
		t.Fatalf("disk run cache traffic = %+v, want all disk hits", repDisk.Cache)
	}
}

// TestCacheDedupAcrossFigures pins the `experiments all` sharing
// behaviour: Figures 5 and 8 sweep the same baseline and hydra cells
// over the same workloads, so with a shared cache the second figure
// simulates only its two novel variants — each unique (config,
// workload, seed) combination runs exactly once per process.
func TestCacheDedupAcrossFigures(t *testing.T) {
	cache := newCache(t, "")
	o5 := fastOptions()
	o5.Cache = cache
	o5.Target = "fig5"
	if _, err := Figure5(o5); err != nil {
		t.Fatal(err)
	}
	storesAfter5 := cache.Stats().Stores

	o8 := fastOptions()
	o8.Cache = cache
	o8.Target = "fig8"
	rep8, err := Figure8(o8)
	if err != nil {
		t.Fatal(err)
	}
	wl := len(o8.Workloads)
	// Figure 8 runs baseline + {nogct, norcc, hydra}; baseline and
	// hydra were already simulated for Figure 5.
	if got, want := rep8.Cache.Hits, int64(2*wl); got != want {
		t.Fatalf("fig8 reused %d cells, want %d (baseline+hydra x %d workloads)", got, want, wl)
	}
	if got, want := rep8.Cache.Misses, int64(2*wl); got != want {
		t.Fatalf("fig8 simulated %d cells, want %d (nogct+norcc only)", got, want)
	}
	if got, want := cache.Stats().Stores-storesAfter5, int64(2*wl); got != want {
		t.Fatalf("fig8 stored %d new cells, want %d", got, want)
	}
	for _, c := range rep8.Cells {
		isShared := strings.Contains(c.Key, "/baseline/") || strings.Contains(c.Key, "/hydra/")
		if isShared && c.Status != obsv.CellCached {
			t.Errorf("shared cell %s has status %q, want cached", c.Key, c.Status)
		}
		if !isShared && c.Status != obsv.CellOK {
			t.Errorf("novel cell %s has status %q, want ok", c.Key, c.Status)
		}
	}
}

// TestPerfReportMarksBaselineMissing pins the satellite contract: a
// scheme cell that simulated fine but lost its baseline is marked
// baseline-missing — distinct from failed — and excluded from Norm.
// The baseline loss is induced end to end by poisoning the result
// cache with a zero-cycle baseline result under that cell's content
// hash: the replay succeeds, then the zero-cycle filter fails that
// baseline cell.
func TestPerfReportMarksBaselineMissing(t *testing.T) {
	o := fastOptions()
	o.Workloads = []string{"parest", "GUPS"}
	o.Target = "bm"
	o.Cache = newCache(t, "")
	parest, err := workload.ByName("parest")
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := cellIdentity(o.withDefaults(), parest, baselineVariant, new(sim.Config))
	if hash == "" {
		t.Fatal("baseline cell has no content hash")
	}
	if err := o.Cache.Store(hash, "bm/baseline/parest", sim.Result{Cycles: 0}); err != nil {
		t.Fatal(err)
	}

	rep, err := Sweep(o, "baseline-missing probe", []Variant{
		{Name: "hydra", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra }},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got obsv.CellStatus
	for _, c := range rep.Cells {
		if c.Key == "bm/hydra/parest" {
			got = c
		}
	}
	if got.Status != obsv.CellBaselineMissing {
		t.Fatalf("scheme cell over failed baseline has status %q (%+v), want %q",
			got.Status, got, obsv.CellBaselineMissing)
	}
	if got.Error == "" || !strings.Contains(got.Error, "baseline") {
		t.Fatalf("baseline-missing cell carries reason %q, want a baseline mention", got.Error)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("baseline-missing status does not validate: %v", err)
	}
	if _, ok := rep.Norm["hydra"]["parest"]; ok {
		t.Fatal("unnormalizable cell leaked into Norm")
	}
	// The untouched workload still normalizes, and its cells stayed ok.
	if _, ok := rep.Norm["hydra"]["GUPS"]; !ok {
		t.Fatal("healthy workload lost its normalization")
	}
	// The baseline cell itself reports failed (zero cycles), keeping
	// the two failure modes separable in the same report.
	for _, c := range rep.Cells {
		if c.Key == "bm/baseline/parest" && c.Status != obsv.CellFailed {
			t.Fatalf("poisoned baseline cell has status %q, want failed", c.Status)
		}
	}
}
