package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rh"
)

// smallConfig is a deliberately tiny Hydra for fast functional tests:
// 4096 rows, 32-entry GCT (128-row groups like the paper), 64-entry
// 8-way RCC, T_RH=100 so T_H=50 and T_G=40.
func smallConfig() Config {
	return Config{
		Rows:       4096,
		TRH:        100,
		GCTEntries: 32,
		RCCEntries: 64,
		RCCWays:    8,
		RowBytes:   8192,
	}
}

func TestGCTFiltersLowActivity(t *testing.T) {
	sink := &rh.CountingSink{}
	h := MustNew(smallConfig(), sink)
	// Touch many rows a few times each: all must be GCT-only.
	for row := rh.Row(0); row < 4096; row += 16 {
		for i := 0; i < 3; i++ {
			if h.Activate(row) {
				t.Fatalf("mitigation for cold row %d", row)
			}
		}
	}
	s := h.Stats()
	if s.GCTOnly != s.Acts {
		t.Fatalf("GCTOnly=%d Acts=%d; cold traffic should be fully filtered", s.GCTOnly, s.Acts)
	}
	if sink.Total() != 0 {
		t.Fatalf("cold traffic caused %d metadata transfers", sink.Total())
	}
}

func TestGroupInitCostsTwoLinesEachWay(t *testing.T) {
	sink := &rh.CountingSink{}
	h := MustNew(smallConfig(), sink)
	// Saturate group 0 (rows 0..127): 40 activations anywhere in it.
	for i := 0; i < 40; i++ {
		h.Activate(rh.Row(i % 128))
	}
	s := h.Stats()
	if s.GroupInits != 1 {
		t.Fatalf("GroupInits = %d, want 1", s.GroupInits)
	}
	// 128 rows x 1 byte = 2 lines: 2 reads + 2 writes (Section 4.4).
	if sink.Reads != 2 || sink.Writes != 2 {
		t.Fatalf("group init traffic = %d reads, %d writes; want 2/2", sink.Reads, sink.Writes)
	}
	// Every row of the group now has an RCT count of T_G.
	for row := rh.Row(0); row < 128; row++ {
		if got := h.EstimatedCount(row); got != 40 {
			t.Fatalf("row %d estimated count = %d, want TG=40", row, got)
		}
	}
}

// TestGroupsSaturateIndependently saturates every group in turn: each
// must initialize at exactly its T_G-th activation, and the RIT-ACT
// guards must still count from zero. The GCT, the groups' init bits and
// the guards share one allocation, so an overlap shows here.
func TestGroupsSaturateIndependently(t *testing.T) {
	h := MustNew(smallConfig(), rh.NullSink{})
	tg := h.Config().TG
	for g := 0; g < 32; g++ {
		for i := 1; i <= tg; i++ {
			h.Activate(rh.Row(g*128 + i%128))
			want := int64(g)
			if i == tg {
				want++
			}
			if inits := h.Stats().GroupInits; inits != want {
				t.Fatalf("group %d, activation %d: %d group inits, want %d", g, i, inits, want)
			}
		}
	}
	for i := 1; i <= h.Config().TH; i++ {
		if got := h.ActivateMeta(0); got != (i == h.Config().TH) {
			t.Fatalf("RIT-ACT activation %d: mitigation %v", i, got)
		}
	}
}

func TestPreciseMitigationForSoloRow(t *testing.T) {
	h := MustNew(smallConfig(), rh.NullSink{})
	// Best case (Section 4.5): the row shares its group with no other
	// active row, so counting is precise and the first mitigation
	// lands exactly at T_H = 50 activations.
	row := rh.Row(300)
	for i := 1; i <= 49; i++ {
		if h.Activate(row) {
			t.Fatalf("early mitigation at activation %d", i)
		}
	}
	if !h.Activate(row) {
		t.Fatal("no mitigation at activation 50 (T_H)")
	}
	// Phase 3: subsequent mitigations every T_H activations.
	for round := 0; round < 3; round++ {
		for i := 1; i <= 49; i++ {
			if h.Activate(row) {
				t.Fatalf("round %d: early mitigation at +%d", round, i)
			}
		}
		if !h.Activate(row) {
			t.Fatalf("round %d: no mitigation at +50", round)
		}
	}
}

func TestWorstCaseEarlyMitigation(t *testing.T) {
	h := MustNew(smallConfig(), rh.NullSink{})
	// Worst case (Section 4.5): row B first activates after its group
	// already saturated, so its RCT entry starts at T_G and mitigation
	// comes after T_H - T_G = 10 activations.
	a, b := rh.Row(0), rh.Row(1)
	for i := 0; i < 40; i++ {
		h.Activate(a)
	}
	for i := 1; i <= 9; i++ {
		if h.Activate(b) {
			t.Fatalf("mitigation for B at activation %d, want 10", i)
		}
	}
	if !h.Activate(b) {
		t.Fatal("no mitigation for B at activation 10 (T_H - T_G)")
	}
}

func TestAccessDistributionStats(t *testing.T) {
	h := MustNew(smallConfig(), rh.NullSink{})
	// Saturate group 0, then hit one row repeatedly: first per-row
	// access is an RCT fetch (RCC miss), the rest are RCC hits.
	for i := 0; i < 40; i++ {
		h.Activate(rh.Row(5))
	}
	for i := 0; i < 9; i++ {
		h.Activate(rh.Row(5))
	}
	s := h.Stats()
	if s.GCTOnly != 40 {
		t.Errorf("GCTOnly = %d, want 40", s.GCTOnly)
	}
	if s.RCTAccess != 1 {
		t.Errorf("RCTAccess = %d, want 1 (first miss)", s.RCTAccess)
	}
	if s.RCCHit != 8 {
		t.Errorf("RCCHit = %d, want 8", s.RCCHit)
	}
	if s.Acts != 49 {
		t.Errorf("Acts = %d, want 49", s.Acts)
	}
}

func TestRCCEvictionWritesBack(t *testing.T) {
	cfg := smallConfig()
	cfg.RCCEntries = 8
	cfg.RCCWays = 8 // single set: easy to thrash
	sink := &rh.CountingSink{}
	h := MustNew(cfg, sink)
	// Saturate group 0 then touch 9 distinct rows of it: the 9th
	// install evicts a dirty entry, costing a read+write beyond the
	// install read.
	for i := 0; i < 40; i++ {
		h.Activate(rh.Row(0))
	}
	base := sink.Total()
	for r := rh.Row(0); r < 9; r++ {
		h.Activate(r)
	}
	// 9 installs = 9 reads; 1 dirty eviction = 1 read + 1 write.
	gotReads := sink.Reads - 2 // minus group-init reads
	if base != 4 {
		t.Fatalf("unexpected pre-traffic %d", base)
	}
	if gotReads != 10 || sink.Writes-2 != 1 {
		t.Fatalf("traffic = %d reads, %d writes beyond init; want 10 reads, 1 write",
			gotReads, sink.Writes-2)
	}
	// The evicted row's count must survive the round trip: row 0 was
	// evicted with count 41; re-activating it resumes from the RCT.
	if got := h.EstimatedCount(rh.Row(0)); got != 41 {
		t.Fatalf("evicted count lost: estimated = %d, want 41", got)
	}
}

// offsetSink records the line offset of every RCT transfer.
type offsetSink struct{ reads, writes []uint64 }

func (s *offsetSink) MetaRead(off uint64)  { s.reads = append(s.reads, off) }
func (s *offsetSink) MetaWrite(off uint64) { s.writes = append(s.writes, off) }

// TestRCCEvictionWritesBackToVictimLine pins where a dirty RCC victim
// is written back: to its own RCT line, not the incoming row's. Rows
// 0-7 (line 0) fill the single RCC set; row 64 lies in the next line of
// the same group, so whichever entry it evicts, the install reads line
// 64 and the write-back reads and writes line 0.
func TestRCCEvictionWritesBackToVictimLine(t *testing.T) {
	cfg := smallConfig()
	cfg.RCCEntries = 8
	cfg.RCCWays = 8
	sink := &offsetSink{}
	h := MustNew(cfg, sink)
	for i := 0; i < 40; i++ {
		h.Activate(rh.Row(0)) // saturate group 0 (rows 0-127)
	}
	for r := rh.Row(0); r < 8; r++ {
		h.Activate(r) // dirty installs from line 0
	}
	victimLine, incomingLine := h.rctLineOffset(0), h.rctLineOffset(64)
	if victimLine == incomingLine {
		t.Fatalf("rows 0 and 64 share RCT line %d; the test needs two lines", victimLine)
	}
	sink.reads, sink.writes = nil, nil
	h.Activate(rh.Row(64))
	wantReads := []uint64{incomingLine, victimLine}
	if !reflect.DeepEqual(sink.reads, wantReads) || !reflect.DeepEqual(sink.writes, []uint64{victimLine}) {
		t.Fatalf("evicting install: reads %v, writes %v; want reads %v, writes [%d]",
			sink.reads, sink.writes, wantReads, victimLine)
	}
}

func TestResetWindowClearsSRAM(t *testing.T) {
	h := MustNew(smallConfig(), rh.NullSink{})
	for i := 0; i < 45; i++ {
		h.Activate(rh.Row(7))
	}
	h.ResetWindow()
	if got := h.GCTValue(rh.Row(7)); got != 0 {
		t.Fatalf("GCT after reset = %d, want 0", got)
	}
	// After reset the row must again enjoy T_H fresh activations.
	for i := 1; i <= 49; i++ {
		if h.Activate(rh.Row(7)) {
			t.Fatalf("mitigation at %d activations after reset", i)
		}
	}
	if !h.Activate(rh.Row(7)) {
		t.Fatal("no mitigation at 50 activations after reset")
	}
}

func TestStaleRCTOverwrittenAcrossWindows(t *testing.T) {
	h := MustNew(smallConfig(), rh.NullSink{})
	// Window 1: drive row 9 to count 49 (one short of mitigation).
	for i := 0; i < 49; i++ {
		h.Activate(rh.Row(9))
	}
	h.ResetWindow()
	// Window 2: saturating the group must overwrite the stale 49 with
	// T_G, not resume from it (Section 4.6).
	for i := 0; i < 40; i++ {
		h.Activate(rh.Row(10)) // same group as row 9
	}
	if got := h.EstimatedCount(rh.Row(9)); got != 40 {
		t.Fatalf("stale RCT survived reset: estimated = %d, want 40", got)
	}
}

func TestActivateMetaGuardsRCTRows(t *testing.T) {
	h := MustNew(smallConfig(), rh.NullSink{})
	th := h.Config().TH
	for i := 1; i < th; i++ {
		if h.ActivateMeta(0) {
			t.Fatalf("meta mitigation at activation %d, want %d", i, th)
		}
	}
	if !h.ActivateMeta(0) {
		t.Fatalf("no meta mitigation at activation %d", th)
	}
	// Counter must reset after mitigation.
	if h.ActivateMeta(0) {
		t.Fatal("meta mitigation immediately after reset")
	}
	if h.Stats().MetaMitig != 1 {
		t.Fatalf("MetaMitig = %d, want 1", h.Stats().MetaMitig)
	}
}

func TestNoGCTCountsPerRowFromStart(t *testing.T) {
	cfg := smallConfig()
	cfg.NoGCT = true
	h := MustNew(cfg, rh.NullSink{})
	if h.Name() != "hydra-nogct" {
		t.Fatalf("Name = %q", h.Name())
	}
	row := rh.Row(11)
	for i := 1; i <= 49; i++ {
		if h.Activate(row) {
			t.Fatalf("early mitigation at %d", i)
		}
	}
	if !h.Activate(row) {
		t.Fatal("no mitigation at 50")
	}
	if h.Stats().GCTOnly != 0 {
		t.Fatal("NoGCT ablation used the GCT")
	}
}

func TestNoGCTLazyClearAcrossWindows(t *testing.T) {
	cfg := smallConfig()
	cfg.NoGCT = true
	h := MustNew(cfg, rh.NullSink{})
	row := rh.Row(12)
	for i := 0; i < 30; i++ {
		h.Activate(row)
	}
	h.ResetWindow()
	// 30 more in the new window must NOT mitigate (30+30 > TH only
	// across windows, and windows are independent).
	for i := 1; i <= 30; i++ {
		if h.Activate(row) {
			t.Fatalf("stale RCT count leaked across windows (act %d)", i)
		}
	}
}

func TestNoRCCDoesReadModifyWrite(t *testing.T) {
	cfg := smallConfig()
	cfg.NoRCC = true
	sink := &rh.CountingSink{}
	h := MustNew(cfg, sink)
	if h.Name() != "hydra-norcc" {
		t.Fatalf("Name = %q", h.Name())
	}
	for i := 0; i < 40; i++ {
		h.Activate(rh.Row(0))
	}
	base := sink.Total() // group init: 2R+2W
	h.Activate(rh.Row(0))
	if sink.Total()-base != 2 {
		t.Fatalf("per-row act cost %d transfers, want 2 (RMW)", sink.Total()-base)
	}
	if h.Stats().RCCHit != 0 {
		t.Fatal("NoRCC ablation hit the RCC")
	}
	// Row 0's entry started at T_G = 40 and the write-back made it 41:
	// the read-modify-write counts exactly, mitigating at T_H = 50 and
	// every T_H activations after.
	for act := 42; act <= 150; act++ {
		if got, want := h.Activate(rh.Row(0)), act%50 == 0; got != want {
			t.Fatalf("activation %d: mitigation %v, want %v", act, got, want)
		}
	}
}

// TestSecurityInvariant is the repo's statement of Theorem 1: under any
// activation sequence, no row accumulates more than T_H true
// activations within a window without Hydra issuing a mitigation for
// it. Runs with the static and the randomized (cipher) mapping.
func TestSecurityInvariant(t *testing.T) {
	for _, randomize := range []bool{false, true} {
		cfg := smallConfig()
		cfg.Randomize = randomize
		cfg.Seed = 1234
		th := 50

		f := func(seed int64, hotRaw uint8) bool {
			h := MustNew(cfg, rh.NullSink{})
			rng := rand.New(rand.NewSource(seed))
			hot := int(hotRaw%8) + 1
			trueCount := make(map[rh.Row]int)
			for i := 0; i < 4000; i++ {
				var row rh.Row
				if rng.Intn(100) < 80 {
					row = rh.Row(rng.Intn(hot)) // hammer a few rows
				} else {
					row = rh.Row(rng.Intn(cfg.Rows))
				}
				trueCount[row]++
				if h.Activate(row) {
					trueCount[row] = 0
				}
				if trueCount[row] > th {
					t.Logf("row %d reached %d true acts without mitigation", row, trueCount[row])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("randomize=%v: %v", randomize, err)
		}
	}
}

// TestEstimateNeverUndercounts encodes Lemma 1: Hydra's estimated count
// for a row is always >= its true count within the window.
func TestEstimateNeverUndercounts(t *testing.T) {
	f := func(seed int64) bool {
		h := MustNew(smallConfig(), rh.NullSink{})
		rng := rand.New(rand.NewSource(seed))
		trueCount := make(map[rh.Row]int)
		for i := 0; i < 2000; i++ {
			row := rh.Row(rng.Intn(256)) // concentrate to force conflicts
			trueCount[row]++
			if h.Activate(row) {
				trueCount[row] = 0
			}
			if h.EstimatedCount(row) < trueCount[row] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAblationSecurityInvariant(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.NoGCT = true },
		func(c *Config) { c.NoRCC = true },
	} {
		cfg := smallConfig()
		mut(&cfg)
		h := MustNew(cfg, rh.NullSink{})
		rng := rand.New(rand.NewSource(99))
		trueCount := make(map[rh.Row]int)
		for i := 0; i < 20000; i++ {
			row := rh.Row(rng.Intn(64))
			trueCount[row]++
			if h.Activate(row) {
				trueCount[row] = 0
			}
			if trueCount[row] > 50 {
				t.Fatalf("%s: row %d exceeded TH without mitigation", h.Name(), row)
			}
		}
	}
}

func TestActivateOutOfRangePanics(t *testing.T) {
	h := MustNew(smallConfig(), rh.NullSink{})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range row should panic")
		}
	}()
	h.Activate(rh.Row(4096))
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.TG = cfg.TRH // invalid: TG >= TH
	if _, err := New(cfg, rh.NullSink{}); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func TestNonDivisibleGeometry(t *testing.T) {
	// Rows not a multiple of the group size: the last group is
	// partial and must still init correctly.
	cfg := Config{
		Rows:       1000, // groups of ceil(1000/8)=125
		TRH:        100,
		GCTEntries: 8,
		RCCEntries: 16,
		RCCWays:    8,
		RowBytes:   8192,
	}
	h := MustNew(cfg, rh.NullSink{})
	if g := cfg.GroupSize(); g != 125 {
		t.Fatalf("GroupSize = %d", g)
	}
	// Saturate the last (partial) group.
	last := rh.Row(999)
	for i := 0; i < 40; i++ {
		h.Activate(last)
	}
	if got := h.EstimatedCount(last); got != 40 {
		t.Fatalf("partial-group estimate = %d, want 40", got)
	}
	for i := 1; i <= 10; i++ {
		mit := h.Activate(last)
		if i < 10 && mit {
			t.Fatalf("early mitigation at +%d", i)
		}
		if i == 10 && !mit {
			t.Fatal("no mitigation at TH")
		}
	}
}

func TestRandomizedWindowRemapping(t *testing.T) {
	cfg := smallConfig()
	cfg.Randomize = true
	cfg.Seed = 5
	h := MustNew(cfg, rh.NullSink{})
	// Build a set of rows sharing row 0's group this window.
	g0 := h.index(rh.Row(0)) / uint32(h.groupSize)
	var mates []rh.Row
	for r := rh.Row(1); r < 4096 && len(mates) < 5; r++ {
		if h.index(r)/uint32(h.groupSize) == g0 {
			mates = append(mates, r)
		}
	}
	if len(mates) == 0 {
		t.Skip("no group mates found (tiny domain)")
	}
	h.ResetWindow() // rekey
	moved := 0
	for _, r := range mates {
		if h.index(r)/uint32(h.groupSize) != h.index(rh.Row(0))/uint32(h.groupSize) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("rekey left the whole group intact; mapping not randomized")
	}
}

func TestMitigationRateUnderSustainedHammer(t *testing.T) {
	// Phase-3 cadence: over a long hammer, mitigations settle to
	// exactly one per TH activations.
	h := MustNew(smallConfig(), rh.NullSink{})
	row := rh.Row(2000)
	mitigs := 0
	n := 5000
	for i := 0; i < n; i++ {
		if h.Activate(row) {
			mitigs++
		}
	}
	if want := n / 50; mitigs != want {
		t.Fatalf("mitigations = %d over %d acts, want %d", mitigs, n, want)
	}
}

func TestStatsAreConsistent(t *testing.T) {
	h := MustNew(smallConfig(), rh.NullSink{})
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 30000; i++ {
		h.Activate(rh.Row(rng.Intn(4096)))
	}
	s := h.Stats()
	if s.GCTOnly+s.RCCHit+s.RCTAccess != s.Acts {
		t.Fatalf("distribution does not sum: %+v", s)
	}
	if s.MetaReads < s.MetaWrites {
		t.Fatalf("reads (%d) < writes (%d): every write path also reads", s.MetaReads, s.MetaWrites)
	}
}

// corruptFlat is the flat-table CorruptRCT the paged table replaced,
// kept as the reference for TestCorruptRCTMatchesFlatTable.
func corruptFlat(rct []uint16, frac float64, rng func() float64) int {
	n := 0
	for i, v := range rct {
		if v != 0 && rng() < frac {
			rct[i] = 0
			n++
		}
	}
	return n
}

// countingRNG returns a deterministic [0,1) source and a pointer to
// its draw count.
func countingRNG(seed uint64) (func() float64, *int) {
	draws := 0
	return func() float64 {
		draws++
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / (1 << 53)
	}, &draws
}

// rctValue returns RCT entry idx as the DRAM holds it: the host table
// stores entries XOR fill in every group ever initialized.
func (t *Tracker) rctValue(idx uint32) uint16 {
	v := t.rct.Get(idx)
	if g := int(idx) / t.groupSize; t.inited != nil && t.inited[g/16]&(1<<(g%16)) != 0 {
		v ^= t.fill
	}
	return v
}

// TestCorruptRCTMatchesFlatTable pins the RCT encoding against the flat
// table it replaced, for each tracker variant: on a sparse tracker (few
// groups initialized, most pages never written, one group stale across
// a window reset) CorruptRCT zeroes the same entries with the same
// number of RNG draws, so chaos runs reproduce bit for bit. Then, where
// there is a GCT, it saturates the corrupted groups again in a fresh
// window: group init must overwrite every row of them with T_G.
func TestCorruptRCTMatchesFlatTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"randomize", func(c *Config) { c.Randomize, c.Seed = true, 3 }},
		{"norcc", func(c *Config) { c.NoRCC = true }},
		{"nogct", func(c *Config) { c.NoGCT = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Rows = 1 << 20
			cfg.GCTEntries = cfg.Rows / 128
			tc.set(&cfg)
			h := MustNew(cfg, rh.NullSink{})
			rowOf := make([]rh.Row, cfg.Rows) // inverts the current window's row-to-index map
			invert := func() {
				for r := range rowOf {
					rowOf[h.index(rh.Row(r))] = rh.Row(r)
				}
			}
			// hammer activates width rows from index base on, 300 times
			// in all: with a GCT the group saturates, and with the small
			// RCC many of its rows are evicted, so RCT entries hold both
			// T_G and counts. 24 rows keep their page sparse, 96 turn it
			// dense.
			hammer := func(base, width int) {
				for i := 0; i < 300; i++ {
					h.Activate(rowOf[base+i%width])
				}
			}
			invert()
			hammer(5<<12, 24)
			hammer(77<<12, 96)
			h.ResetWindow() // 77<<12 stays stale, initialized last window
			invert()
			hammer(5<<12, 24)
			hammer(200<<12+300, 96)
			hammer(255<<12, 24)
			flat := make([]uint16, cfg.Rows)
			for i := range flat {
				flat[i] = h.rctValue(uint32(i))
			}
			sparse, dense := h.rct.Pages()
			if sparse == 0 || dense == 0 || sparse+dense > 8 {
				t.Fatalf("%d sparse and %d dense RCT pages in use, want a sparse table (1..8 of %d, both forms)", sparse, dense, cfg.Rows/rh.CounterPageRows)
			}
			for _, frac := range []float64{0.3, 1} {
				rngP, drawsP := countingRNG(42)
				rngF, drawsF := countingRNG(42)
				n := h.CorruptRCT(frac, rngP)
				want := corruptFlat(flat, frac, rngF)
				if n != want || *drawsP != *drawsF {
					t.Fatalf("frac %v: tracker corrupted %d with %d draws, flat %d with %d", frac, n, *drawsP, want, *drawsF)
				}
				for i, v := range flat {
					if got := h.rctValue(uint32(i)); got != v {
						t.Fatalf("frac %v: entry %d = %d after corruption, flat table has %d", frac, i, got, v)
					}
				}
				if frac == 0.3 && (n == 0 || *drawsP == n) {
					t.Fatalf("frac 0.3 corrupted %d of %d nonzero entries; want a strict subset", n, *drawsP)
				}
			}
			if cfg.NoGCT {
				return
			}
			h.ResetWindow()
			invert()
			tg := h.Config().TG
			for _, base := range []int{5 << 12, 77 << 12, (200<<12 + 300) / h.groupSize * h.groupSize, 255 << 12} {
				for i := 0; i < tg; i++ {
					h.Activate(rowOf[base])
				}
				for idx := base; idx < base+h.groupSize; idx++ {
					if v, est := h.rctValue(uint32(idx)), h.EstimatedCount(rowOf[idx]); int(v) != tg || est != tg {
						t.Fatalf("index %d after re-saturating its corrupted group: RCT %d, estimate %d, want T_G %d", idx, v, est, tg)
					}
				}
			}
		})
	}
}

// TestGroupInitAllocatesNoCounterPage pins group init as a range clear:
// saturating a group in a page of the RCT never written allocates
// nothing, however many pages it reaches.
func TestGroupInitAllocatesNoCounterPage(t *testing.T) {
	h := MustNew(Default(), rh.NullSink{})
	page := 0
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < h.Config().TG; i++ {
			h.Activate(rh.Row(page * rh.CounterPageRows))
		}
		page++
	})
	if inits := h.Stats().GroupInits; inits != int64(page) {
		t.Fatalf("%d group inits over %d saturated groups", inits, page)
	}
	if sparse, dense := h.rct.Pages(); allocs != 0 || sparse+dense != 0 {
		t.Fatalf("%v allocations per group init, %d sparse and %d dense RCT pages; want none", allocs, sparse, dense)
	}
}
