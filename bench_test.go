// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment across
// all 36 workloads and reports the same rows/series the paper plots;
// run with -v (or see EXPERIMENTS.md) for the full report text.
//
// The footprint scale is HYDRA_BENCH_SCALE (default 64: every workload
// simulates 1/64 of a 64 ms window with tracker structures scaled by
// the same factor, which does not keep the paper's behaviour; see
// DESIGN.md). Set 1 for a full-window run. EXPERIMENTS.md's numbers
// come from `go run ./cmd/experiments -scale 16 all`, not from these
// benchmarks.
package hydra_test

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/power"
	"repro/internal/rh"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/track"
)

func benchScale() float64 {
	if v := os.Getenv("HYDRA_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f >= 1 {
			return f
		}
	}
	return 64
}

func benchOptions() exp.Options {
	return exp.Options{Scale: benchScale()}
}

// BenchmarkTable1 regenerates the prior-tracker storage table.
func BenchmarkTable1(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.Table1Text()
	}
	b.Log("\n" + out)
}

// BenchmarkTable2 renders the baseline system configuration.
func BenchmarkTable2(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.Table2Text()
	}
	b.Log("\n" + out)
}

// BenchmarkTable3 measures the workload generator against the paper's
// characterization (MPKI, unique rows, hot rows, ACTs/row).
func BenchmarkTable3(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := exp.Table3(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = rep.Format()
	}
	b.Log("\n" + out)
}

// BenchmarkTable4 regenerates Hydra's storage breakdown.
func BenchmarkTable4(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.Table4Text()
	}
	b.Log("\n" + out)
}

// BenchmarkTable5 regenerates the DDR4-vs-DDR5 total-SRAM table.
func BenchmarkTable5(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.Table5Text(500)
	}
	b.Log("\n" + out)
}

// BenchmarkFigure2 regenerates the CRA metadata-cache sweep.
func BenchmarkFigure2(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := exp.Figure2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = rep.Format()
	}
	b.Log("\n" + out)
}

// BenchmarkFigure5 regenerates the headline Graphene/CRA/Hydra
// comparison over all 36 workloads.
func BenchmarkFigure5(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := exp.Figure5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = rep.Format()
	}
	b.Log("\n" + out)
}

// BenchmarkFigure6 regenerates the GCT/RCC/RCT access distribution.
func BenchmarkFigure6(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := exp.Figure6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = rep.Format()
	}
	b.Log("\n" + out)
}

// BenchmarkFigure7 regenerates the T_RH sensitivity study.
func BenchmarkFigure7(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := exp.Figure7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = rep.Format()
	}
	b.Log("\n" + out)
}

// BenchmarkFigure8 regenerates the GCT/RCC ablation.
func BenchmarkFigure8(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := exp.Figure8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = rep.Format()
	}
	b.Log("\n" + out)
}

// BenchmarkFigure9 regenerates the GCT-capacity sweep.
func BenchmarkFigure9(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := exp.Figure9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = rep.Format()
	}
	b.Log("\n" + out)
}

// BenchmarkFigure10 regenerates the T_G sweep.
func BenchmarkFigure10(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := exp.Figure10(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = rep.Format()
	}
	b.Log("\n" + out)
}

// BenchmarkPower regenerates the Section 6.8 power analysis.
func BenchmarkPower(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := exp.Power(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = rep.Format()
	}
	b.Log("\n" + out)
}

// BenchmarkSecuritySuite runs the Section 5 attack patterns against
// Hydra and asserts the oracle sees no violation.
func BenchmarkSecuritySuite(b *testing.B) {
	geom := track.BaselineGeometry()
	cfg := attack.Config{TRH: 500, RowsPerBank: geom.RowsPerBank, ActsPerWin: 200000, Windows: 2}
	for i := 0; i < b.N; i++ {
		for _, mk := range []func() attack.Pattern{
			func() attack.Pattern { return &attack.SingleSided{Target: 100000} },
			func() attack.Pattern { return &attack.DoubleSided{Victim: 100000} },
			func() attack.Pattern { return &attack.HalfDouble{Victim: 100000} },
		} {
			hc := core.ForThreshold(500)
			tr := core.MustNew(hc, rh.NullSink{})
			if res := attack.Run(tr, mk(), cfg); !res.Safe() {
				b.Fatalf("hydra broken: %+v", res.Violations[0])
			}
		}
	}
}

// BenchmarkTrackerActivate measures the software cost of one Hydra
// activation on the common (GCT-filtered) path.
func BenchmarkTrackerActivate(b *testing.B) {
	t := core.MustNew(core.Default(), rh.NullSink{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Activate(rh.Row(uint32(i) % (4 * 1024 * 1024)))
	}
}

// BenchmarkStorageModels exercises the Table 1/5 sizing math.
func BenchmarkStorageModels(b *testing.B) {
	r := storage.PaperRank()
	for i := 0; i < b.N; i++ {
		_ = storage.Table1(r, 250, 500, 1000, 32000)
		_ = storage.Table5(500)
		_ = power.HydraSRAM()
	}
}

// BenchmarkExtensionPolicies compares the three mitigation policies in
// full system on a hot workload (the ext-policies study).
func BenchmarkExtensionPolicies(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := exp.ExtensionPolicies(exp.Options{
			Scale:     benchScale(),
			Workloads: []string{"parest", "xz"},
		})
		if err != nil {
			b.Fatal(err)
		}
		out = rep.Format()
	}
	b.Log("\n" + out)
}

// BenchmarkExtensionRandomized compares static vs cipher GCT indexing
// (footnote 4's ablation).
func BenchmarkExtensionRandomized(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := exp.ExtensionRandomized(exp.Options{
			Scale:     benchScale(),
			Workloads: []string{"parest", "xz"},
		})
		if err != nil {
			b.Fatal(err)
		}
		out = rep.Format()
	}
	b.Log("\n" + out)
}

// BenchmarkAblationRCCReplacement measures the RCC hit-rate cost of
// swapping the paper's SRRIP policy for plain LRU under a hot set that
// overflows the cache.
func BenchmarkAblationRCCReplacement(b *testing.B) {
	run := func(lru bool) float64 {
		cfg := core.Default()
		cfg.Rows = 1 << 20
		cfg.RCCEntries = 1024
		cfg.RCCUseLRU = lru
		t := core.MustNew(cfg, rh.NullSink{})
		// Saturate groups then stream a hot set 4x the RCC.
		for g := 0; g < 4096/128; g++ {
			for i := 0; i < 200; i++ {
				t.Activate(rh.Row(g * 128))
			}
		}
		for i := 0; i < 400000; i++ {
			t.Activate(rh.Row(uint32(i*7) % 4096))
		}
		s := t.Stats()
		return float64(s.RCCHit) / float64(s.RCCHit+s.RCTAccess)
	}
	for i := 0; i < b.N; i++ {
		srrip := run(false)
		lru := run(true)
		b.ReportMetric(srrip*100, "srrip-hit%")
		b.ReportMetric(lru*100, "lru-hit%")
	}
}

// campaignSweeps is a miniature `experiments all`: two figure-style
// sweeps (Figure 5's tracker comparison, Figure 8's ablation) that
// share their baseline and hydra cells, run back to back like the CLI
// runs targets. Small scale and two workloads keep one uncached pass
// around a second so the cached/uncached pair stays benchmarkable.
func campaignSweeps(b *testing.B, cache *harness.CellCache) {
	b.Helper()
	opts := exp.Options{
		Scale:     512,
		Workloads: []string{"parest", "GUPS"},
		Cache:     cache,
	}
	fig5 := []exp.Variant{
		{Name: "cra-64KB", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackCRA; c.CRACacheBytes = 64 * 1024 }},
		{Name: "hydra", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra }},
	}
	fig8 := []exp.Variant{
		{Name: "hydra-nogct", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydraNoGCT }},
		{Name: "hydra", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra }},
	}
	o5 := opts
	o5.Target = "bench-fig5"
	if _, err := exp.Sweep(o5, "campaign fig5", fig5); err != nil {
		b.Fatal(err)
	}
	o8 := opts
	o8.Target = "bench-fig8"
	if _, err := exp.Sweep(o8, "campaign fig8", fig8); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCampaignUncached measures the multi-figure campaign with
// caching disabled: every cell simulates, including the baseline and
// hydra cells both sweeps share. The cached variant below is the same
// campaign; the ratio between the two is the result-cache speedup the
// perf gate tracks. No ReportAllocs on this pair: campaign allocation
// counts jitter with the worker pool's goroutine scheduling.
func BenchmarkCampaignUncached(b *testing.B) {
	for i := 0; i < b.N; i++ {
		campaignSweeps(b, nil)
	}
}

// BenchmarkCampaignCached measures the same campaign against a warm
// in-memory cache (warmed once before the timer): all cells replay,
// which is what the second-and-later targets of `experiments all` and
// re-runs under -cache-dir see.
func BenchmarkCampaignCached(b *testing.B) {
	cache, err := harness.NewCellCache("")
	if err != nil {
		b.Fatal(err)
	}
	cache.Decode = exp.DecodeResult
	campaignSweeps(b, cache) // warm every cell
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaignSweeps(b, cache)
	}
}

// BenchmarkFigure1b regenerates the motivation tradeoff plot: SRAM
// overhead vs slowdown, with Hydra in the goal corner.
func BenchmarkFigure1b(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rep, err := exp.Figure1b(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = rep.Format()
	}
	b.Log("\n" + out)
}
