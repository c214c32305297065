package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
)

// TestArenaRestricted runs a cut-down arena (two thresholds, two
// workloads) end to end and checks the three matrices: benign
// performance, security verdicts, adversarial slowdown.
func TestArenaRestricted(t *testing.T) {
	opts := Options{Scale: 64, Workloads: []string{"parest", "GUPS"}}
	rep, err := Arena(opts, []int{1000, 500})
	if err != nil {
		t.Fatal(err)
	}

	if failed := FailedCells(rep.Cells); len(failed) > 0 {
		t.Fatalf("arena lost %d cells, first: %+v", len(failed), failed[0])
	}

	// Benign perf: every scheme@trh geomean present and plausible.
	for _, kind := range ArenaSimSchemes() {
		for _, trh := range rep.Thresholds {
			g := rep.Geomean(kind, trh)
			if g <= 0 || g > 1.05 {
				t.Errorf("geomean %s@%d = %.3f, want (0, 1.05]", kind, trh, g)
			}
		}
	}

	// Security: the deterministic guarantee-sized schemes stay safe
	// against every adversary at every threshold; the under-provisioned
	// START pool is broken by the eviction storm at T_RH=500 — the
	// arena's demonstrable defeat of a non-Hydra tracker.
	for _, s := range []string{"hydra", "graphene", "start", "dapper", "ocpr", "cra"} {
		for _, trh := range rep.Thresholds {
			for _, a := range rep.Adversaries {
				row, ok := rep.SecurityRow(s, trh, a)
				if !ok {
					t.Fatalf("missing security row %s/%d/%s", s, trh, a)
				}
				if !row.Safe {
					t.Errorf("%s broken by %s at T_RH=%d (%d violations)", s, a, trh, row.Violations)
				}
			}
		}
	}
	storm, ok := rep.SecurityRow("start-budget", 500, "rcc-evict")
	if !ok {
		t.Fatal("missing start-budget/500/rcc-evict row")
	}
	if storm.Safe {
		t.Error("under-provisioned START survived the eviction storm at T_RH=500")
	}
	if !storm.Expected {
		t.Error("rcc-evict does not mark start-budget as a target")
	}
	if mint, ok := rep.SecurityRow("mint", 500, "mint-dilute"); !ok || !mint.Expected {
		t.Error("mint-dilute does not mark mint as a target")
	}

	// Mitigation-storm rows record a burst peak for schemes that
	// mitigate at all.
	if row, ok := rep.SecurityRow("graphene", 500, "mitig-storm"); !ok || row.PeakBurst <= 0 {
		t.Errorf("graphene mitig-storm peak = %+v, want positive", row)
	}

	// Adversarial slowdown: every scheme has a verdict for every
	// adversary, all in a plausible normalized-perf band.
	if rep.AdvTRH != 500 || rep.AdvWorkload != "parest" {
		t.Errorf("adv setup = %s@%d, want parest@500", rep.AdvWorkload, rep.AdvTRH)
	}
	for _, s := range rep.Schemes {
		for _, a := range rep.Adversaries {
			v, ok := rep.Slowdown[s][a]
			if !ok {
				t.Errorf("missing slowdown %s/%s", s, a)
				continue
			}
			if v <= 0 || v > 1.5 {
				t.Errorf("slowdown %s/%s = %.3f out of band", s, a, v)
			}
		}
	}

	out := rep.Format()
	for _, want := range []string{"Normalized performance", "Security verdicts",
		"T_RH=500", "Adversarial slowdown", "start-budget", "mint-dilute"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

// TestArenaCacheTrafficCountsQuarantine reruns a small arena over its
// cache directory with one entry torn: the rerun's cache traffic, taken
// around both of its campaigns, counts that entry as quarantined and
// every other entry as a disk hit.
func TestArenaCacheTrafficCountsQuarantine(t *testing.T) {
	dir := t.TempDir()
	arena := func() harness.CacheStats {
		t.Helper()
		cache, err := harness.NewCellCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Arena(Options{Scale: 4096, Workloads: []string{"leela"}, Cache: cache}, []int{500})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cache
	}
	first := arena()
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) == 0 || first.Stores != int64(len(entries)) {
		t.Fatalf("first run stored %d entries, found %d on disk (%v)", first.Stores, len(entries), err)
	}
	if err := os.WriteFile(entries[0], []byte(`{"schema":`), 0o644); err != nil {
		t.Fatal(err)
	}
	got := arena()
	if got.Quarantined != 1 || got.CorruptDropped != 1 || got.DiskHits != int64(len(entries)-1) {
		t.Fatalf("rerun cache traffic %+v, want 1 quarantined and %d disk hits", got, len(entries)-1)
	}
}

func TestArenaRejectsBadThreshold(t *testing.T) {
	if _, err := Arena(Options{Workloads: []string{"parest"}}, []int{1}); err == nil {
		t.Fatal("threshold 1 accepted")
	}
}

// TestArenaVariantNaming pins the scheme@trh convention run reports
// and cached cell keys rely on.
func TestArenaVariantNaming(t *testing.T) {
	if got := arenaVariant(sim.TrackSTART, 500); got != "start@500" {
		t.Fatalf("arenaVariant = %q, want start@500", got)
	}
}

// TestArenaFuncTrackersBuildAtDefaultThresholds builds every functional
// scheme at every default threshold. Hydra at 4800 used to size its RCC
// at 853 entries, not a whole number of 16-way sets, which core.New
// rejects: the full arena failed after its whole benign campaign.
func TestArenaFuncTrackersBuildAtDefaultThresholds(t *testing.T) {
	for _, name := range ArenaFuncSchemes() {
		for _, trh := range DefaultArenaThresholds {
			if _, err := ArenaFuncTracker(name, arenaSecurityGeometry(), trh, 1); err != nil {
				t.Errorf("%s at T_RH %d: %v", name, trh, err)
			}
		}
	}
}
