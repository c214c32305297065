package exp

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	"repro/internal/iofault"
	"repro/internal/obsv"
	"repro/internal/testutil"
)

// crashCampaign runs one small disk-cached Figure-5 campaign with all
// storage IO routed through fsys, writes its report through fsys too,
// and returns the normalized report encoding and the cache's counters.
// Parallelism is 1 so the IO-operation sequence is reproducible across
// runs — the requirement for a crash-index sweep to be meaningful.
func crashCampaign(t *testing.T, fsys iofault.FS, dir string, ctx context.Context, workloads []string) ([]byte, harness.CacheStats, error) {
	t.Helper()
	cache, err := harness.NewCellCacheFS(filepath.Join(dir, "cache"), fsys)
	if err != nil {
		return nil, harness.CacheStats{}, err
	}
	cache.Decode = DecodeResult
	o := Options{
		Scale:       64,
		Workloads:   workloads,
		Parallelism: 1,
		Target:      "fig5",
		Cache:       cache,
		Ctx:         ctx,
	}
	rep, err := Figure5(o)
	if err != nil {
		return nil, cache.Stats(), err
	}
	rf := obsv.NewReportFile(BuildReport("fig5", o, rep, 0))
	if err := rf.WriteFileFS(fsys, filepath.Join(dir, "report.json")); err != nil {
		return nil, cache.Stats(), err
	}
	rf.Normalize()
	var buf bytes.Buffer
	if err := rf.Encode(&buf); err != nil {
		return nil, cache.Stats(), err
	}
	return buf.Bytes(), cache.Stats(), nil
}

// TestCrashPointSweep kills the storage plane at every IO operation of
// a disk-cached campaign, then restarts over the surviving cache
// directory and requires the resumed run's report to be bitwise
// identical to an uninterrupted run's. No crash index may corrupt a
// result undetected: a torn entry must land in quarantine and
// re-simulate, never decode into the report. And a restart must
// replay what survived: after a crash past the rename that landed the
// first cache entry, the restart reads at least one cell from disk;
// before it, none.
func TestCrashPointSweep(t *testing.T) {
	workloads := testutil.Pick(t, []string{"parest"}, []string{"parest", "bwaves", "GUPS", "leela"})
	ctx := context.Background()

	// Reference: one clean run on the real filesystem.
	want, _, err := crashCampaign(t, iofault.OS{}, t.TempDir(), ctx, workloads)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Learn the IO-operation count of a clean run and the index of the
	// rename that lands its first cache entry (and re-check
	// determinism through the passthrough injector while at it).
	probe := iofault.NewInjector(iofault.OS{})
	probeDir := t.TempDir()
	firstStore := -1
	probe.Plan = func(op iofault.Op) iofault.Fault {
		if firstStore < 0 && op.Kind == "rename" && filepath.Dir(op.Path) == filepath.Join(probeDir, "cache") {
			firstStore = op.N
		}
		return iofault.FaultNone
	}
	got, _, err := crashCampaign(t, probe, probeDir, ctx, workloads)
	if err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("probe run diverged from reference:\n%s\nvs\n%s", got, want)
	}
	nops := probe.Ops()
	if nops < 10 {
		t.Fatalf("campaign performed only %d IO ops; injector not wired through?", nops)
	}
	if firstStore < 0 {
		t.Fatalf("probe run of %d IO ops stored no cache entry", nops)
	}
	testutil.Logf(t, "sweeping %d crash points over %d workloads; first cache entry lands at op %d",
		nops, len(workloads), firstStore)

	for i := 0; i < nops; i++ {
		dir := t.TempDir()
		in := iofault.NewInjector(iofault.OS{})
		in.Plan = iofault.CrashPlan(i)
		cctx, cancel := context.WithCancel(ctx)
		// A real crash kills the process; here the campaign context dies
		// with the storage plane.
		in.OnFault = func(iofault.Op, iofault.Fault) { cancel() }
		if _, _, err := crashCampaign(t, in, dir, cctx, workloads); err == nil && in.Crashed() {
			t.Fatalf("crash at op %d: campaign reported success", i)
		}
		cancel()

		// Restart: same directories, healthy filesystem.
		got, stats, err := crashCampaign(t, iofault.OS{}, dir, ctx, workloads)
		if err != nil {
			t.Fatalf("crash at op %d: resume failed: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("crash at op %d: resumed report differs from reference:\n%s\nvs\n%s", i, got, want)
		}
		if durable := i > firstStore; durable != (stats.DiskHits > 0) {
			t.Fatalf("crash at op %d (first cache entry lands at op %d): restart read %d cells from disk",
				i, firstStore, stats.DiskHits)
		}
	}
}

// TestCrashAfterDroppedSyncsQuarantines drops every sync (so nothing
// is durable) and then crashes, leaving visible-but-torn files behind
// — the scenario fsync discipline exists for. The restarted campaign
// must detect every torn cache entry (it moves to quarantine with a
// counter) and still reproduce the reference report exactly, and at
// least one swept crash point must leave such an entry.
func TestCrashAfterDroppedSyncsQuarantines(t *testing.T) {
	workloads := []string{"parest"}
	ctx := context.Background()

	want, _, err := crashCampaign(t, iofault.OS{}, t.TempDir(), ctx, workloads)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	probe := iofault.NewInjector(iofault.OS{})
	if _, _, err := crashCampaign(t, probe, t.TempDir(), ctx, workloads); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	nops := probe.Ops()

	stride := testutil.Pick(t, 7, 1)
	dropSyncs := func(op iofault.Op) iofault.Fault {
		if op.Kind == "sync" || op.Kind == "syncdir" {
			return iofault.FaultDropSync
		}
		return iofault.FaultNone
	}
	sawQuarantine := false
	for i := 0; i < nops; i += stride {
		dir := t.TempDir()
		in := iofault.NewInjector(iofault.OS{})
		in.Plan = iofault.ThenCrash(dropSyncs, i)
		cctx, cancel := context.WithCancel(ctx)
		in.OnFault = func(_ iofault.Op, f iofault.Fault) {
			if f == iofault.FaultCrash {
				cancel()
			}
		}
		crashCampaign(t, in, dir, cctx, workloads) //nolint:errcheck // crashed on purpose
		cancel()

		cache, err := harness.NewCellCacheFS(filepath.Join(dir, "cache"), iofault.OS{})
		if err != nil {
			t.Fatalf("crash at op %d: reopening cache: %v", i, err)
		}
		cache.Decode = DecodeResult
		o := Options{
			Scale: 64, Workloads: workloads, Parallelism: 1,
			Target: "fig5", Cache: cache,
		}
		rep, err := Figure5(o)
		if err != nil {
			t.Fatalf("crash at op %d: resume failed: %v", i, err)
		}
		rf := obsv.NewReportFile(BuildReport("fig5", o, rep, 0))
		rf.Normalize()
		var buf bytes.Buffer
		if err := rf.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("crash at op %d: resumed report differs from reference", i)
		}

		// Corruption must be detected, never silent: every quarantined
		// file was counted, and torn entries never reach results (the
		// report equality above is that assertion).
		qdir := filepath.Join(dir, "cache", harness.QuarantineDir)
		if ents, err := os.ReadDir(qdir); err == nil && len(ents) > 0 {
			sawQuarantine = true
			if q := cache.Stats().Quarantined; q != int64(len(ents)) {
				t.Fatalf("crash at op %d: %d files in quarantine but counter says %d",
					i, len(ents), q)
			}
		}
	}
	testutil.Logf(t, "swept %d drop-sync crash points (stride %d), quarantine exercised: %v",
		(nops+stride-1)/stride, stride, sawQuarantine)
	if !sawQuarantine {
		t.Fatalf("no drop-sync crash point left a torn cache entry to quarantine (stride %d over %d ops)",
			stride, nops)
	}
}
