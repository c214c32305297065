package exp

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/sim"
)

// TestSweepIsolatesPanickingVariant is the acceptance drill for the
// campaign harness: a variant whose Mutate panics must not take down
// the sweep — every other cell completes, the failure is attributed to
// its cell, and the JSON run report carries the verdict.
func TestSweepIsolatesPanickingVariant(t *testing.T) {
	o := Options{Scale: 64, Workloads: []string{"parest", "GUPS"}, Target: "resilience"}
	schemes := []Variant{
		{Name: "good", Mutate: func(c *sim.Config) {}},
		{Name: "explosive", Mutate: func(c *sim.Config) { panic("injected fault: variant exploded") }},
	}
	rep, err := Sweep(o, "resilience drill", schemes)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Norm["good"]); n != 2 {
		t.Fatalf("healthy variant completed %d/2 cells", n)
	}
	if n := len(rep.Norm["explosive"]); n != 0 {
		t.Fatalf("panicking variant produced %d results", n)
	}
	failed := FailedCells(rep.Cells)
	if len(failed) != 2 {
		t.Fatalf("failed cells = %+v, want the 2 explosive ones", failed)
	}
	for _, c := range failed {
		if !strings.HasPrefix(c.Key, "resilience/explosive/") {
			t.Errorf("failure attributed to wrong cell %q", c.Key)
		}
		if !c.Panicked || !strings.Contains(c.Error, "injected fault: variant exploded") {
			t.Errorf("cell %s: panicked=%v error=%q", c.Key, c.Panicked, c.Error)
		}
	}
	if out := rep.Format(); !strings.Contains(out, "FAILED CELLS (2)") {
		t.Errorf("Format does not flag the failed cells:\n%s", out)
	}

	// The machine-readable run report must record the same verdicts and
	// still validate against the hydra-run-report/v1 schema.
	report := BuildReport("resilience", o, rep, time.Second)
	if err := report.Validate(); err != nil {
		t.Fatalf("run report invalid: %v", err)
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	js := string(data)
	if !strings.Contains(js, `"status":"failed"`) || !strings.Contains(js, "injected fault: variant exploded") {
		t.Errorf("JSON run report missing the failed-cell verdict:\n%s", js)
	}
}

// TestSweepCacheResume drives resume by cache directory end to end. A
// first pass with a broken variant stores its healthy cells; a second
// pass, from a fresh cache over the same directory as a rerun would
// open it, simulates only what is missing; a third at another T_RH and
// seed simulates every cell again and matches a cache-free run, so a
// directory filled at one setting never replays into another.
func TestSweepCacheResume(t *testing.T) {
	dir := t.TempDir()
	o := Options{Scale: 64, Workloads: []string{"parest", "GUPS"}, Target: "resume"}

	o.Cache = newCache(t, dir)
	rep1, err := Sweep(o, "pass 1", []Variant{
		{Name: "flaky", Mutate: func(c *sim.Config) { panic("breaks on the first pass") }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(FailedCells(rep1.Cells)); n != 2 {
		t.Fatalf("pass 1 failed cells = %d, want 2", n)
	}
	if rep1.Cache.Stores != 2 { // the two baseline cells
		t.Fatalf("pass 1 stored %d cells, want 2", rep1.Cache.Stores)
	}

	// Second pass: same directory, variant fixed. Only the two
	// previously failed cells may simulate; cellIdentity calls Mutate
	// for every cell, so the cache's misses count the simulations.
	fixed := []Variant{{Name: "flaky", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra }}}
	o.Cache = newCache(t, dir)
	rep2, err := Sweep(o, "pass 2", fixed)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Cache.Misses != 2 || rep2.Cache.DiskHits != 2 {
		t.Fatalf("pass 2: %d misses, %d disk hits; want only the 2 missing cells simulated", rep2.Cache.Misses, rep2.Cache.DiskHits)
	}
	if cached, ok := countStatus(rep2.Cells, obsv.CellCached), countStatus(rep2.Cells, obsv.CellOK); cached != 2 || ok != 2 {
		t.Fatalf("pass 2: %d cached and %d ok cells, want 2 and 2 (cells %+v)", cached, ok, rep2.Cells)
	}
	if n := len(rep2.Norm["flaky"]); n != 2 {
		t.Fatalf("pass 2 completed %d/2 flaky cells", n)
	}

	// Third pass: another threshold and seed over the same directory.
	// No stored cell matches, so every cell simulates.
	o.TRH, o.Seed = 250, SeedOf(2)
	o.Cache = newCache(t, dir)
	rep3, err := Sweep(o, "pass 3", fixed)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Cache.DiskHits != 0 || rep3.Cache.Misses != 4 {
		t.Fatalf("pass 3: %d disk hits, %d misses; want every cell simulated", rep3.Cache.DiskHits, rep3.Cache.Misses)
	}
	fresh := o
	fresh.Cache = nil
	want, err := Sweep(fresh, "fresh", fixed)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range o.Workloads {
		if got, want := rep3.Norm["flaky"][wl], want.Norm["flaky"][wl]; got != want || got == 0 {
			t.Fatalf("pass 3 %s: normalized %v, a fresh run gives %v", wl, got, want)
		}
	}
}
