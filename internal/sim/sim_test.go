package sim

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/trace"
	"repro/internal/workload"
)

// hotProfile is a compact memory-intensive workload with a real hot
// set, exercising all three Hydra levels quickly.
func hotProfile() workload.Profile {
	return workload.Profile{
		Name: "test-hot", Suite: workload.SPEC,
		MPKI: 20, UniqueRows: 16000, Hot250: 400, ActsPerRow: 40,
	}
}

// coldProfile touches many rows a few times each: the GCT should
// filter nearly everything.
func coldProfile() workload.Profile {
	return workload.Profile{
		Name: "test-cold", Suite: workload.SPEC,
		MPKI: 20, UniqueRows: 40000, Hot250: 0, ActsPerRow: 6,
	}
}

func testConfig(p workload.Profile, kind TrackerKind) Config {
	cfg := Default(p)
	cfg.Scale = 4
	cfg.Tracker = kind
	return cfg
}

func TestBaselineRunCompletes(t *testing.T) {
	res, err := Run(testConfig(coldProfile(), TrackNone))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Insts <= 0 {
		t.Fatalf("implausible result %+v", res)
	}
	if res.Mem.Reads == 0 || res.Mem.Activates == 0 {
		t.Fatalf("no memory activity: %+v", res.Mem)
	}
	if res.Mitigations != 0 || res.SRAMBytes != 0 {
		t.Fatalf("baseline has tracker artifacts: %+v", res)
	}
	if ipc := res.IPC(); ipc <= 0 || ipc > float64(8*4) {
		t.Fatalf("IPC = %v out of range", ipc)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(testConfig(hotProfile(), TrackHydra))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(hotProfile(), TrackHydra))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Mitigations != b.Mitigations || !reflect.DeepEqual(a.Mem, b.Mem) {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
}

// TestTrackerOverheadOrdering is the Figure 5 shape on one workload:
// Graphene ~ baseline, Hydra slightly slower, CRA much slower.
func TestTrackerOverheadOrdering(t *testing.T) {
	run := func(kind TrackerKind) Result {
		res, err := Run(testConfig(hotProfile(), kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		return res
	}
	base := run(TrackNone)
	graphene := run(TrackGraphene)
	hydra := run(TrackHydra)
	cra := run(TrackCRA)

	slow := func(r Result) float64 {
		return float64(r.Cycles)/float64(base.Cycles) - 1
	}
	t.Logf("slowdowns: graphene=%.3f hydra=%.3f cra=%.3f", slow(graphene), slow(hydra), slow(cra))

	if s := slow(graphene); s > 0.02 {
		t.Errorf("graphene slowdown %.3f, want ~0", s)
	}
	if s := slow(hydra); s < 0 || s > 0.10 {
		t.Errorf("hydra slowdown %.3f, want small and positive", s)
	}
	if slow(cra) < 2*slow(hydra) {
		t.Errorf("CRA (%.3f) not clearly worse than Hydra (%.3f)", slow(cra), slow(hydra))
	}
	if cra.Mem.MetaReads == 0 || hydra.Mem.MetaReads == 0 {
		t.Error("trackers produced no metadata traffic")
	}
	if hydra.Mitigations == 0 {
		t.Error("hot workload produced no mitigations under hydra")
	}
	if hydra.Mem.MitigActs == 0 {
		t.Error("mitigations produced no victim-refresh activations")
	}
}

// TestHydraAccessDistribution is the Figure 6 shape: cold workloads
// are filtered almost entirely by the GCT; hot workloads need the RCC
// and some RCT traffic.
func TestHydraAccessDistribution(t *testing.T) {
	cold, err := Run(testConfig(coldProfile(), TrackHydra))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hydra == nil {
		t.Fatal("no hydra stats")
	}
	gctFrac := float64(cold.Hydra.GCTOnly) / float64(cold.Hydra.Acts)
	if gctFrac < 0.95 {
		t.Errorf("cold workload GCT-only fraction = %.3f, want > 0.95", gctFrac)
	}

	hot, err := Run(testConfig(hotProfile(), TrackHydra))
	if err != nil {
		t.Fatal(err)
	}
	if hot.Hydra.RCCHit == 0 {
		t.Error("hot workload never hit the RCC")
	}
	if hot.Hydra.RCTAccess == 0 {
		t.Error("hot workload never reached the RCT")
	}
	rctFrac := float64(hot.Hydra.RCTAccess) / float64(hot.Hydra.Acts)
	if rctFrac > 0.2 {
		t.Errorf("RCT fraction = %.3f, want small (RCC should absorb most)", rctFrac)
	}
}

// TestAblationOrdering is the Figure 8 shape. The NoGCT penalty is
// driven by large-footprint workloads whose every row needs per-row
// state (compulsory RCC misses), so the ordering check uses the cold,
// wide profile; the hot profile checks that NoRCC pays for its
// read-modify-writes.
func TestAblationOrdering(t *testing.T) {
	run := func(p func() workloadProfile, kind TrackerKind) int64 {
		res, err := Run(testConfig(p(), kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		return res.Cycles
	}
	full := run(coldProfile, TrackHydra)
	noGCT := run(coldProfile, TrackHydraNoGCT)
	t.Logf("cold: full=%d nogct=%d", full, noGCT)
	if noGCT <= full*101/100 {
		t.Errorf("NoGCT (%d) not clearly worse than full Hydra (%d) on a wide footprint", noGCT, full)
	}
	fullHot := run(hotProfile, TrackHydra)
	noRCC := run(hotProfile, TrackHydraNoRCC)
	t.Logf("hot: full=%d norcc=%d", fullHot, noRCC)
	if noRCC < fullHot {
		t.Errorf("NoRCC (%d) faster than full Hydra (%d)", noRCC, fullHot)
	}
}

type workloadProfile = workload.Profile

func TestCRAMetadataCacheSizeMatters(t *testing.T) {
	run := func(bytes int) Result {
		cfg := testConfig(hotProfile(), TrackCRA)
		// Unscaled structures: the point is the cache-size sweep, so
		// the footprint (4000 rows ~ 4000 counter lines) must dwarf
		// the small cache and fit in the large one.
		cfg.KeepStructSize = true
		cfg.CRACacheBytes = bytes
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run(16 * 1024)
	big := run(1024 * 1024)
	if small.Mem.MetaReads <= big.Mem.MetaReads {
		t.Errorf("bigger cache did not cut metadata traffic: %d vs %d",
			small.Mem.MetaReads, big.Mem.MetaReads)
	}
	if big.Cycles > small.Cycles {
		t.Errorf("bigger metadata cache slower: 16KB=%d 1MB=%d", small.Cycles, big.Cycles)
	}
}

// TestCRACacheRoundsToWholeSets: a scale that does not split CRA's
// cache into whole sets of NewCRA's 16 lines rounds it up to the next
// whole set instead of failing the cell, and a power-of-two scale keeps
// the exact quotient.
func TestCRACacheRoundsToWholeSets(t *testing.T) {
	for _, tc := range []struct {
		scale     float64
		kb, bytes int
	}{
		{10, 64, 7168},  // 6553 B before rounding
		{3, 64, 22528},  // 21845 B
		{16, 100, 7168}, // 6400 B
		{16, 64, 4096},
		{64, 64, 1024},
		{4096, 64, 1024}, // 16 B, raised to one set
	} {
		cfg := testConfig(hotProfile(), TrackCRA)
		cfg.Scale, cfg.CRACacheBytes = tc.scale, tc.kb*1024
		s, err := New(cfg)
		if err != nil {
			t.Errorf("scale %v, %d KB: %v", tc.scale, tc.kb, err)
			continue
		}
		if got := s.tracker.SRAMBytes(); got != tc.bytes {
			t.Errorf("scale %v, %d KB: cache %d B, want %d", tc.scale, tc.kb, got, tc.bytes)
		}
	}
}

// TestUnknownTrackerRejected: New refuses an unknown kind and, of the
// kinds NewTracker builds, the functional-only ones; it builds the
// timing kinds.
func TestUnknownTrackerRejected(t *testing.T) {
	for _, kind := range append(FuncKinds(), "bogus") {
		_, err := New(testConfig(hotProfile(), kind))
		if timed := slices.Contains(TimingKinds(), kind); timed != (err == nil) {
			t.Errorf("%s: New returned %v, want an error: %v", kind, err, !timed)
		}
	}
}

func TestOCPRAndPARARun(t *testing.T) {
	for _, kind := range []TrackerKind{TrackOCPR, TrackPARA} {
		res, err := Run(testConfig(hotProfile(), kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Mitigations == 0 {
			t.Errorf("%s: no mitigations on hot workload", kind)
		}
	}
}

// TestArenaTrackersRun smoke-tests the post-Hydra schemes end to end:
// they must run under the full simulator and report their storage.
func TestArenaTrackersRun(t *testing.T) {
	for _, kind := range []TrackerKind{TrackSTART, TrackMINT, TrackDAPPER} {
		res, err := Run(testConfig(hotProfile(), kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Mitigations == 0 {
			t.Errorf("%s: no mitigations on hot workload", kind)
		}
		if res.SRAMBytes <= 0 {
			t.Errorf("%s: SRAMBytes = %d", kind, res.SRAMBytes)
		}
	}
}

// TestTraceReplayMatchesGeneration records the synthetic streams and
// replays them through the simulator: results must be identical.
func TestTraceReplayMatchesGeneration(t *testing.T) {
	cfg := testConfig(hotProfile(), TrackHydra)

	gen, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Record each core's stream into memory and replay.
	var sources []cpu.TraceSource
	scfg := workload.DefaultStreamConfig(cfg.Mem, cfg.Mem.RowsPerBank-17)
	scfg.Cores, scfg.Scale, scfg.Seed = cfg.Cores, cfg.Scale, cfg.Seed
	for i := 0; i < cfg.Cores; i++ {
		sc := scfg
		sc.CoreID = i
		src, err := workload.NewStream(cfg.Profile, sc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Record(w, src); err != nil {
			t.Fatal(err)
		}
		r, err := trace.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, r)
	}
	replayCfg := cfg
	replayCfg.Traces = sources
	replay, err := Run(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Cycles != gen.Cycles || !reflect.DeepEqual(replay.Mem, gen.Mem) || replay.Mitigations != gen.Mitigations {
		t.Fatalf("replay diverged: %+v vs %+v", replay, gen)
	}
}

// TestMultiRankGeometry runs a 2-rank-per-channel organization end to
// end: decode/encode, refresh per rank, tracker geometry and the
// reserved region must all hold together.
func TestMultiRankGeometry(t *testing.T) {
	mem := dram.Config{
		Channels:        2,
		RanksPerChannel: 2,
		BanksPerRank:    8,
		RowsPerBank:     65536,
		RowBytes:        8192,
	}
	if err := mem.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(hotProfile(), TrackHydra)
	cfg.Mem = mem
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Mem.Activates == 0 {
		t.Fatalf("empty run: %+v", res)
	}
	if res.Mitigations == 0 {
		t.Fatal("no mitigations on the hot workload")
	}
	// Refreshes are per rank: four ranks must refresh.
	if res.Mem.Refreshes == 0 {
		t.Fatal("no refreshes")
	}
}

// TestDDR5GeometryRuns exercises the 32-bank organization used by the
// ext-ddr5 study.
func TestDDR5GeometryRuns(t *testing.T) {
	cfg := testConfig(hotProfile(), TrackHydra)
	cfg.Mem = dram.DDR5()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SRAMBytes == 0 || res.Mem.Activates == 0 {
		t.Fatalf("empty run: %+v", res)
	}
}

// TestNewRejectsNonPowerOfTwoGeometry: the address mapping is shifts
// and masks, so New refuses a geometry it cannot map (with an error,
// not the memory controller's construction panic).
func TestNewRejectsNonPowerOfTwoGeometry(t *testing.T) {
	cfg := testConfig(hotProfile(), TrackHydra)
	cfg.Mem.BanksPerRank = 12
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted 12 banks per rank")
	}
}
