package attack

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mitigate"
	"repro/internal/rh"
	"repro/internal/testutil"
	"repro/internal/track"
)

const (
	testTRH   = 100
	testRows  = 4096
	testRPB   = 1024 // rows per bank: 4 banks
	testBanks = 4
)

func testGeom() track.Geometry {
	return track.Geometry{Rows: testRows, RowsPerBank: testRPB, Banks: testBanks, ACTMax: 20000}
}

func smallHydra(t *testing.T) *core.Tracker {
	t.Helper()
	return core.MustNew(core.Config{
		Rows:       testRows,
		TRH:        testTRH,
		GCTEntries: 32,
		RCCEntries: 64,
		RCCWays:    8,
		RowBytes:   8192,
	}, rh.NullSink{})
}

func runCfg() Config {
	return Config{TRH: testTRH, RowsPerBank: testRPB, ActsPerWin: 10000, Windows: 2}
}

// TestHydraSurvivesClassicPatterns drives every classic hammer pattern
// against Hydra across two windows (including the reset-straddling
// exposure) and requires zero oracle violations: the executable form of
// Theorem 1.
func TestHydraSurvivesClassicPatterns(t *testing.T) {
	patterns := []func() Pattern{
		func() Pattern { return &SingleSided{Target: 500} },
		func() Pattern { return &DoubleSided{Victim: 500} },
		func() Pattern { return &ManySided{Base: 500, Sides: 8} },
		func() Pattern { return &ManySided{Base: 500, Sides: 19, Spacing: 3} },
		func() Pattern { return &HalfDouble{Victim: 500} },
		func() Pattern {
			return &Thrash{
				Target:     500,
				Distractor: func(i int) rh.Row { return rh.Row(i*7) % testRows },
				Spread:     1500,
				HammerEach: 3,
			}
		},
	}
	for _, mk := range patterns {
		p := mk()
		res := Run(smallHydra(t), p, runCfg())
		if !res.Safe() {
			t.Errorf("hydra broken by %s: %d violations, first %+v",
				p.Name(), len(res.Violations), res.Violations[0])
		}
		if res.MaxUnmitig >= testTRH {
			t.Errorf("%s: max unmitigated count %d >= TRH", p.Name(), res.MaxUnmitig)
		}
	}
}

func TestGrapheneAndOCPRSurviveThrash(t *testing.T) {
	thrash := func() Pattern {
		return &Thrash{
			Target:     500,
			Distractor: func(i int) rh.Row { return rh.Row(i) % testRPB }, // same bank
			Spread:     1000,
			HammerEach: 3,
		}
	}
	for _, tr := range []rh.Tracker{
		testutil.Must(track.NewGraphene(testGeom(), testTRH)),
		testutil.Must(track.NewOCPR(testGeom(), testTRH)),
	} {
		res := Run(tr, thrash(), runCfg())
		if !res.Safe() {
			t.Errorf("%s broken by thrash: %+v", tr.Name(), res.Violations[0])
		}
	}
}

// TestUndersizedTWiCEBreaksUnderThrash demonstrates the TRRespass
// weakness the paper describes (Section 2.4): a tracker without enough
// entries loses the aggressor when the table is thrashed.
func TestUndersizedTWiCEBreaksUnderThrash(t *testing.T) {
	tw := testutil.Must(track.NewTWiCE(testGeom(), testTRH, 8)) // far too small
	p := &Thrash{
		Target:     rh.Row(500),
		Distractor: func(i int) rh.Row { return rh.Row(i) % testRPB },
		Spread:     900,
		HammerEach: 2,
	}
	res := Run(tw, p, runCfg())
	if res.Safe() {
		t.Fatal("undersized TWiCE survived thrashing; expected violations")
	}
	if tw.Overflows == 0 {
		t.Fatal("expected table overflows during thrash")
	}
}

// TestHalfDoubleNeedsFeedback shows why mitigation-induced activations
// must be counted (Section 5.2.1): with feedback Hydra is safe; with a
// broken refresher that hides victim refreshes from the tracker, the
// distance-one rows accumulate unmitigated refresh-activations and the
// oracle flags them.
func TestHalfDoubleNeedsFeedback(t *testing.T) {
	// Broken variant: victim refreshes bypass the tracker.
	h := smallHydra(t)
	oracle := NewOracle(testTRH)
	p := &HalfDouble{Victim: 500}
	for i := 0; i < 40000; i++ {
		row := p.Next()
		oracle.Activated(row)
		if h.Activate(row) {
			oracle.Mitigated(row)
			for _, v := range mitigate.Victims(row, 2, testRPB) {
				// The refresh happens (oracle sees the activation)
				// but the tracker is never told.
				oracle.Activated(v)
			}
		}
	}
	oracle.Finish()
	if oracle.Safe() {
		t.Fatal("feedback-free mitigation survived Half-Double; the oracle should catch it")
	}

	// Correct variant (Run uses the real Refresher): safe.
	res := Run(smallHydra(t), &HalfDouble{Victim: 500}, runCfg())
	if !res.Safe() {
		t.Fatalf("hydra with feedback broken by half-double: %+v", res.Violations[0])
	}
}

// TestCounterRowAttack mounts Section 5.2.2's attack on the RCT rows:
// thrash the RCC so every activation turns into RCT line transfers,
// hammering the metadata rows. Hydra's RIT-ACT guard must keep the
// metadata rows mitigated; a tracker without the guard (CRA) is broken.
func TestCounterRowAttack(t *testing.T) {
	oracle := NewOracle(testTRH)
	sink := &MetaRowSink{RowBytes: 8192, Oracle: oracle, MetaBase: rh.Row(testRows)}
	h := core.MustNew(core.Config{
		Rows:       testRows,
		TRH:        testTRH,
		GCTEntries: 32,
		RCCEntries: 8, // tiny RCC so metadata traffic is constant
		RCCWays:    8,
		RowBytes:   8192,
	}, sink)
	sink.Guard = h

	// Saturate many groups, then cycle rows to thrash the RCC.
	for g := 0; g < 16; g++ {
		for i := 0; i < 40; i++ {
			oracle.Activated(rh.Row(g * 128))
			if h.Activate(rh.Row(g * 128)) {
				oracle.Mitigated(rh.Row(g * 128))
			}
		}
	}
	for i := 0; i < 30000; i++ {
		row := rh.Row((i % 16) * 128)
		oracle.Activated(row)
		if h.Activate(row) {
			oracle.Mitigated(row)
		}
	}
	oracle.Finish()
	if sink.Transfers == 0 {
		t.Fatal("attack produced no metadata traffic")
	}
	if sink.Mitigations == 0 {
		t.Fatal("RIT-ACT never mitigated the hammered metadata rows")
	}
	if !oracle.Safe() {
		t.Fatalf("hydra metadata rows broken: %+v", oracle.Violations[0])
	}

	// CRA has no metadata guard: the same pressure breaks its rows.
	oracle2 := NewOracle(testTRH)
	sink2 := &MetaRowSink{RowBytes: 8192, Oracle: oracle2, MetaBase: rh.Row(testRows)}
	c := testutil.Must(track.NewCRA(testGeom(), testTRH, 256, sink2))
	for i := 0; i < 30000; i++ {
		row := rh.Row((i * 64) % testRows) // one line per activation
		oracle2.Activated(row)
		if c.Activate(row) {
			oracle2.Mitigated(row)
		}
	}
	oracle2.Finish()
	if oracle2.Safe() {
		t.Fatal("CRA counter rows survived hammering; expected violations (no RIT-ACT)")
	}
}

// TestOracleWindowSemantics checks the two-window accounting: TRH/2-1
// activations on each side of a reset must stay safe, while TRH
// activations inside one window with no mitigation must not.
func TestOracleWindowSemantics(t *testing.T) {
	o := NewOracle(100)
	row := rh.Row(5)
	for i := 0; i < 49; i++ {
		o.Activated(row)
	}
	o.WindowReset()
	for i := 0; i < 50; i++ {
		o.Activated(row)
	}
	o.Finish()
	if !o.Safe() {
		t.Fatalf("49+50 straddling acts flagged: %+v", o.Violations)
	}
	if o.MaxSeen != 99 {
		t.Fatalf("MaxSeen = %d, want 99", o.MaxSeen)
	}

	o2 := NewOracle(100)
	for i := 0; i < 100; i++ {
		o2.Activated(row)
	}
	o2.Finish()
	if o2.Safe() {
		t.Fatal("100 unmitigated acts not flagged")
	}
}

// TestOracleMitigationAtThresholdIsSafe pins the "at or before"
// semantics of Theorem 1.
func TestOracleMitigationAtThresholdIsSafe(t *testing.T) {
	o := NewOracle(100)
	row := rh.Row(5)
	for i := 0; i < 100; i++ {
		o.Activated(row)
	}
	o.Mitigated(row) // same event as the 100th activation
	o.Finish()
	if !o.Safe() {
		t.Fatalf("mitigation at the threshold activation flagged: %+v", o.Violations)
	}
	// A window boundary between crossing and mitigation commits it.
	o3 := NewOracle(100)
	for i := 0; i < 100; i++ {
		o3.Activated(row)
	}
	o3.WindowReset()
	if o3.Safe() {
		t.Fatal("unmitigated crossing survived a window boundary")
	}
}

// TestPARAIsProbabilistic shows PARA has no guarantee: with a weak
// probability it misses, with the derived probability it usually holds.
func TestPARAIsProbabilistic(t *testing.T) {
	weak := testutil.Must(track.NewPARA(testTRH, 0.9, 7)) // p ~ 0.001
	res := Run(weak, &SingleSided{Target: 500}, runCfg())
	if res.Safe() {
		t.Fatal("weak PARA survived 20000 hammers; expected misses")
	}
	strong := testutil.Must(track.NewPARA(testTRH, 1e-12, 7)) // p ~ 0.24
	res = Run(strong, &SingleSided{Target: 500}, runCfg())
	if !res.Safe() {
		t.Fatalf("strong PARA broken (possible but ~1e-8 unlikely): %+v", res.Violations[0])
	}
}

func TestResultString(t *testing.T) {
	res := Run(smallHydra(t), &SingleSided{Target: 500}, runCfg())
	if s := res.String(); s == "" {
		t.Fatal("empty summary")
	}
	if res.Mitigations == 0 || res.TotalActs < res.DemandActs {
		t.Fatalf("implausible result: %+v", res)
	}
}

// TestProbabilisticTrackersBreakUnderThrash reproduces Section 7.3's
// judgment: the probabilistic designs (ProHIT, MRLoC) have no
// guarantee, and a thrash pattern that keeps flushing their tiny
// tables lets the aggressor through. Hydra survives the identical
// pattern.
func TestProbabilisticTrackersBreakUnderThrash(t *testing.T) {
	mk := func() Pattern {
		return &Thrash{
			Target:     rh.Row(4),
			Distractor: func(i int) rh.Row { return rh.Row(5 + i) },
			Spread:     900,
			HammerEach: 10, // queue-flushing spacing
		}
	}
	cfg := runCfg()
	for _, tr := range []rh.Tracker{
		testutil.Must(track.NewProHIT(testGeom(), 1.0/16, 7)),
		testutil.Must(track.NewMRLoC(testGeom(), 7)),
	} {
		res := Run(tr, mk(), cfg)
		if res.Safe() {
			t.Errorf("%s survived the flush pattern; expected violations", tr.Name())
		}
	}
	if res := Run(smallHydra(t), mk(), cfg); !res.Safe() {
		t.Errorf("hydra broken by the same pattern: %+v", res.Violations[0])
	}
}

// TestRandomizedAdversarySearch is a light adversarial search: many
// random structured attack mixes (hammer rate, distractor spread,
// multi-target sets) run against Hydra — all must stay safe — and
// against MRLoC, where a healthy fraction should break, confirming the
// search generates meaningful pressure.
func TestRandomizedAdversarySearch(t *testing.T) {
	type mix struct {
		targets int
		spread  int
		each    int
	}
	rng := rand.New(rand.NewSource(2026))
	broken := 0
	trials := 30
	for i := 0; i < trials; i++ {
		m := mix{
			targets: 1 + rng.Intn(4),
			spread:  50 + rng.Intn(900),
			each:    2 + rng.Intn(12),
		}
		base := rh.Row(rng.Intn(512))
		mk := func() Pattern {
			return &Thrash{
				Target:     base,
				Distractor: func(j int) rh.Row { return (base + 1 + rh.Row(rng.Intn(testRPB-1))) % rh.Row(testRows) },
				Spread:     m.spread,
				HammerEach: m.each,
			}
		}
		if res := Run(smallHydra(t), mk(), runCfg()); !res.Safe() {
			t.Fatalf("hydra broken by random mix %+v: %+v", m, res.Violations[0])
		}
		if res := Run(testutil.Must(track.NewMRLoC(testGeom(), uint64(i))), mk(), runCfg()); !res.Safe() {
			broken++
		}
	}
	if broken == 0 {
		t.Error("no random mix broke MRLoC; the adversary search is toothless")
	}
	t.Logf("MRLoC broken by %d/%d random mixes; Hydra by none", broken, trials)
}
