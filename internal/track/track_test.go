package track

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/rh"
	"repro/internal/testutil"
)

// testGeom is a small system for fast tests: 1024 rows over 4 banks,
// at most 10000 activations per bank per window.
func testGeom() Geometry {
	return Geometry{Rows: 1024, RowsPerBank: 256, Banks: 4, ACTMax: 10000}
}

const testTRH = 100 // operating threshold 50

func TestGrapheneHammerMitigatedEveryThreshold(t *testing.T) {
	g := testutil.Must(NewGraphene(testGeom(), testTRH))
	row := rh.Row(7)
	mitigs := 0
	for i := 1; i <= 200; i++ {
		if g.Activate(row) {
			mitigs++
			if i%50 != 0 {
				t.Fatalf("mitigation at activation %d, want multiples of 50", i)
			}
		}
	}
	if mitigs != 4 {
		t.Fatalf("mitigations = %d, want 4", mitigs)
	}
}

func TestGrapheneSizingMatchesPaper(t *testing.T) {
	g := testutil.Must(NewGraphene(BaselineGeometry(), 500))
	if got := g.EntriesPerBank(); got != 5440 {
		t.Errorf("entries per bank = %d, want 5440 (~5441 in the paper)", got)
	}
	// Two ranks of 16 banks: ~680 KB total (Table 5).
	kb := g.SRAMBytes() / 1024
	if kb < 640 || kb > 720 {
		t.Errorf("SRAM = %d KB, want ~680 KB", kb)
	}
}

// TestGrapheneSecurityUnderThrash drives the TRRespass-style pattern:
// hammer one row while touching many distractor rows to thrash the
// table. With the guaranteed sizing, no row may accumulate T_RH true
// activations without a mitigation within one window's activation
// budget.
func TestGrapheneSecurityUnderThrash(t *testing.T) {
	geom := testGeom()
	g := testutil.Must(NewGraphene(geom, testTRH))
	rng := rand.New(rand.NewSource(1))
	trueCount := make(map[rh.Row]int)
	target := rh.Row(3)
	for acts := 0; acts < geom.ACTMax; acts++ {
		var row rh.Row
		if acts%3 == 0 {
			row = target
		} else {
			row = rh.Row(rng.Intn(256)) // same bank as target
		}
		trueCount[row]++
		if g.Activate(row) {
			trueCount[row] = 0
		}
		if trueCount[row] >= testTRH {
			t.Fatalf("row %d reached %d true activations without mitigation (act %d)",
				row, trueCount[row], acts)
		}
	}
}

func TestGrapheneEstimateNeverUndercounts(t *testing.T) {
	g := testutil.Must(NewGraphene(testGeom(), testTRH))
	rng := rand.New(rand.NewSource(2))
	trueCount := make(map[rh.Row]int)
	for i := 0; i < 5000; i++ {
		row := rh.Row(rng.Intn(256))
		trueCount[row]++
		g.Activate(row)
		if got := g.EstimatedCount(row); got < trueCount[row] {
			t.Fatalf("estimate %d < true %d for row %d", got, trueCount[row], row)
		}
	}
}

func TestGrapheneResetWindow(t *testing.T) {
	g := testutil.Must(NewGraphene(testGeom(), testTRH))
	for i := 0; i < 49; i++ {
		g.Activate(rh.Row(7))
	}
	g.ResetWindow()
	for i := 1; i <= 49; i++ {
		if g.Activate(rh.Row(7)) {
			t.Fatalf("mitigation at %d activations after reset", i)
		}
	}
	if !g.Activate(rh.Row(7)) {
		t.Fatal("no mitigation at 50 after reset")
	}
}

func TestOCPRExact(t *testing.T) {
	o := testutil.Must(NewOCPR(testGeom(), testTRH))
	row := rh.Row(100)
	for i := 1; i <= 49; i++ {
		if o.Activate(row) {
			t.Fatalf("early mitigation at %d", i)
		}
	}
	if !o.Activate(row) {
		t.Fatal("no mitigation at 50")
	}
	if o.Count(row) != 0 {
		t.Fatal("count not reset after mitigation")
	}
	o.ResetWindow()
	if o.Count(row) != 0 {
		t.Fatal("counters survive reset")
	}
	if o.Mitigations != 1 {
		t.Fatal("lifetime stats must survive reset")
	}
}

func TestOCPRStorageMatchesTable1(t *testing.T) {
	// 16 GB rank = 2 M rows; at T_RH 500 a 9-bit counter per row
	// gives 2.25 MB (Table 1 reports 2.3 MB).
	o := testutil.Must(NewOCPR(Geometry{Rows: 2 * 1024 * 1024, RowsPerBank: 131072, Banks: 16, ACTMax: 1360000}, 500))
	mb := float64(o.SRAMBytes()) / (1 << 20)
	if mb < 2.2 || mb > 2.4 {
		t.Errorf("OCPR storage = %.2f MB, want ~2.3 MB", mb)
	}
}

// TestOCPRThresholdFitsCounters pins the 16-bit counter width of OCPR,
// CRA and D-CBF: the largest threshold that fits acts at exactly T_RH/2
// activations, and one past it is refused rather than left to wrap
// (or, in D-CBF's saturating filters, never be reached).
func TestOCPRThresholdFitsCounters(t *testing.T) {
	geom := testGeom()
	geom.ACTMax = 1 << 18 // D-CBF swaps filters every ACTMax/2 activations of a bank
	const fits, past = 2*math.MaxUint16 + 1, 2 * (math.MaxUint16 + 1)
	for _, tc := range []struct {
		name  string
		build func(trh int) (rh.Tracker, error)
	}{
		{"ocpr", func(trh int) (rh.Tracker, error) { return NewOCPR(geom, trh) }},
		{"cra", func(trh int) (rh.Tracker, error) { return NewCRA(geom, trh, 64*1024, rh.NullSink{}) }},
		{"dcbf", func(trh int) (rh.Tracker, error) { return NewDCBF(geom, trh, 4096, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.build(past); err == nil {
				t.Fatalf("accepted T_RH/2 = %d, past its 16-bit counters", past/2)
			}
			tr, err := tc.build(fits)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < math.MaxUint16; i++ {
				if tr.Activate(3) {
					t.Fatalf("mitigation at %d activations, want %d", i, math.MaxUint16)
				}
			}
			if !tr.Activate(3) {
				t.Fatalf("no mitigation at %d activations", math.MaxUint16)
			}
		})
	}
}

func TestPARAStatistics(t *testing.T) {
	p := testutil.Must(NewPARA(500, 1e-9, 42))
	// p = 1 - (1e-9)^(1/500) ~ 0.0406
	if p.Probability() < 0.03 || p.Probability() > 0.06 {
		t.Fatalf("p = %v, want ~0.041", p.Probability())
	}
	n := 200000
	mitigs := 0
	for i := 0; i < n; i++ {
		if p.Activate(rh.Row(0)) {
			mitigs++
		}
	}
	want := p.Probability() * float64(n)
	if float64(mitigs) < want*0.9 || float64(mitigs) > want*1.1 {
		t.Fatalf("mitigations = %d, want ~%.0f", mitigs, want)
	}
}

func TestPARADeterministicPerSeed(t *testing.T) {
	a := testutil.Must(NewPARA(500, 1e-9, 7))
	b := testutil.Must(NewPARA(500, 1e-9, 7))
	for i := 0; i < 1000; i++ {
		if a.Activate(0) != b.Activate(0) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPARAValidation(t *testing.T) {
	if _, err := NewPARA(1, 1e-9, 0); err == nil {
		t.Error("TRH=1 accepted")
	}
	if _, err := NewPARA(500, 0, 0); err == nil {
		t.Error("failProb=0 accepted")
	}
	if _, err := NewPARA(500, 1, 0); err == nil {
		t.Error("failProb=1 accepted")
	}
}

func TestCRAMitigatesAtThreshold(t *testing.T) {
	c := testutil.Must(NewCRA(testGeom(), testTRH, 4096, rh.NullSink{}))
	row := rh.Row(5)
	for i := 1; i <= 49; i++ {
		if c.Activate(row) {
			t.Fatalf("early mitigation at %d", i)
		}
	}
	if !c.Activate(row) {
		t.Fatal("no mitigation at 50")
	}
}

func TestCRATraffic(t *testing.T) {
	sink := &rh.CountingSink{}
	c := testutil.Must(NewCRA(testGeom(), testTRH, 256, sink)) // 4 lines, one set
	// First touch of a line: one read.
	c.Activate(rh.Row(0))
	if sink.Reads != 1 || sink.Writes != 0 {
		t.Fatalf("first touch: %d reads %d writes, want 1/0", sink.Reads, sink.Writes)
	}
	// Same line again: a hit, no traffic.
	c.Activate(rh.Row(1))
	if sink.Reads != 1 {
		t.Fatalf("hit caused a read")
	}
	// Touch 5 distinct lines: at least one dirty eviction.
	for i := 0; i < 5; i++ {
		c.Activate(rh.Row(i * craRowsPerLine))
	}
	if sink.Writes == 0 {
		t.Fatal("dirty eviction caused no writeback")
	}
	if c.Hits == 0 || c.MissFetches == 0 {
		t.Fatalf("stats: hits=%d misses=%d", c.Hits, c.MissFetches)
	}
}

func TestCRACountsClearAcrossWindows(t *testing.T) {
	c := testutil.Must(NewCRA(testGeom(), testTRH, 4096, rh.NullSink{}))
	row := rh.Row(9)
	for i := 0; i < 30; i++ {
		c.Activate(row)
	}
	c.ResetWindow()
	if got := c.Count(row); got != 0 {
		t.Fatalf("count after window reset = %d, want 0", got)
	}
	for i := 1; i <= 30; i++ {
		if c.Activate(row) {
			t.Fatalf("stale count leaked across windows (act %d)", i)
		}
	}
}

func TestCRAValidation(t *testing.T) {
	if _, err := NewCRA(testGeom(), 1, 4096, rh.NullSink{}); err == nil {
		t.Error("TRH=1 accepted")
	}
	if _, err := NewCRA(testGeom(), 100, 0, rh.NullSink{}); err == nil {
		t.Error("zero-size cache accepted")
	}
}

// scatteredRows returns perPage rows at random offsets in every
// counter page of geom, shuffled: the shape of a bench cell's CRA
// traffic, which touches a few rows in each of hundreds of pages.
func scatteredRows(geom Geometry, perPage int) []rh.Row {
	rng := rand.New(rand.NewSource(9))
	var rows []rh.Row
	for base := 0; base < geom.Rows; base += rh.CounterPageRows {
		for k := 0; k < perPage; k++ {
			rows = append(rows, rh.Row(base+rng.Intn(rh.CounterPageRows)))
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// TestCRACounterStorageFollowsTouchedRows pins CRA's counter storage to
// the rows it counts: building a CRA and activating four rows in each
// of the baseline's 1,024 pages stays within 256 KB (its sparse pages
// are 144 KB of it). Dense pages alone cost 8 KB per page, 8 MB here.
func TestCRACounterStorageFollowsTouchedRows(t *testing.T) {
	geom := BaselineGeometry()
	rows := scatteredRows(geom, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := testutil.Must(NewCRA(geom, 500, 64*1024, rh.NullSink{}))
	for _, r := range rows {
		c.Activate(r)
	}
	runtime.ReadMemStats(&after)
	const budget = 256 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("a CRA activating %d rows over %d pages allocated %d KB, budget %d KB", len(rows), geom.Rows/rh.CounterPageRows, got>>10, budget>>10)
	}
}

func TestTWiCEHammerDetected(t *testing.T) {
	tw := testutil.Must(NewTWiCE(testGeom(), testTRH, 64))
	row := rh.Row(3)
	for i := 1; i <= 49; i++ {
		if tw.Activate(row) {
			t.Fatalf("early mitigation at %d", i)
		}
	}
	if !tw.Activate(row) {
		t.Fatal("no mitigation at 50")
	}
}

func TestTWiCEOverflowWhenUndersized(t *testing.T) {
	tw := testutil.Must(NewTWiCE(testGeom(), testTRH, 4)) // tiny table
	// Fill the table with 4 rows, then a 5th row goes untracked.
	for r := rh.Row(0); r < 5; r++ {
		tw.Activate(r)
	}
	if tw.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1", tw.Overflows)
	}
}

func TestTWiCEPrunesColdEntries(t *testing.T) {
	geom := testGeom()
	tw := testutil.Must(NewTWiCE(geom, testTRH, 64))
	// One cold touch, then enough hot traffic to cross two pruning
	// intervals: the cold entry must be dropped.
	tw.Activate(rh.Row(200))
	hot := rh.Row(1)
	for i := 0; i < 2*(geom.ACTMax/16+1)+4; i++ {
		tw.Activate(hot)
	}
	if tw.Pruned == 0 {
		t.Fatal("cold entry was never pruned")
	}
}

func TestCATHammerMitigatedBeforeTRH(t *testing.T) {
	c := testutil.Must(NewCAT(testGeom(), testTRH, 1024))
	row := rh.Row(17)
	trueSince := 0
	for i := 0; i < 500; i++ {
		trueSince++
		if c.Activate(row) {
			trueSince = 0
		}
		if trueSince >= testTRH {
			t.Fatalf("row reached %d true activations without mitigation", trueSince)
		}
	}
	if c.Splits == 0 {
		t.Fatal("hammering never split the tree")
	}
	if c.UnsafeMitigations != 0 {
		t.Fatalf("well-provisioned CAT produced %d unsafe mitigations", c.UnsafeMitigations)
	}
}

func TestCATPoolExhaustionIsUnsafe(t *testing.T) {
	c := testutil.Must(NewCAT(testGeom(), testTRH, 3)) // root plus one split
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		c.Activate(rh.Row(rng.Intn(256)))
	}
	if c.UnsafeMitigations == 0 {
		t.Fatal("exhausted pool never produced an unsafe mitigation")
	}
}

func TestDCBFNoFalseNegatives(t *testing.T) {
	d := testutil.Must(NewDCBF(testGeom(), testTRH, 4096, 11))
	row := rh.Row(4)
	throttled := false
	for i := 1; i <= 50; i++ {
		if d.Activate(row) {
			throttled = true
			if i < 1 {
				t.Fatalf("throttle before any activation")
			}
		}
	}
	if !throttled {
		t.Fatal("hammered row never blacklisted at threshold")
	}
	// D-CBF cannot un-blacklist until a filter reset: every further
	// activation throttles.
	if !d.Activate(row) {
		t.Fatal("blacklisted row no longer throttled")
	}
	if d.Estimate(row) < 50 {
		t.Fatalf("estimate %d < true count 51", d.Estimate(row))
	}
}

func TestDCBFEstimateNeverUndercounts(t *testing.T) {
	geom := testGeom()
	geom.ACTMax = 1 << 30 // avoid filter swaps in this test
	d := testutil.Must(NewDCBF(geom, testTRH, 1024, 12))
	rng := rand.New(rand.NewSource(5))
	trueCount := make(map[rh.Row]int)
	for i := 0; i < 3000; i++ {
		row := rh.Row(rng.Intn(256))
		trueCount[row]++
		d.Activate(row)
		if est := d.Estimate(row); est < trueCount[row] {
			t.Fatalf("estimate %d < true %d", est, trueCount[row])
		}
	}
}

func TestDCBFResetClearsBlacklist(t *testing.T) {
	d := testutil.Must(NewDCBF(testGeom(), testTRH, 4096, 13))
	row := rh.Row(4)
	for i := 0; i < 100; i++ {
		d.Activate(row)
	}
	d.ResetWindow()
	if d.Activate(row) {
		t.Fatal("row still blacklisted after reset")
	}
}

// TestAllTrackersImplementInterface pins the interface contract and the
// trivial methods in one place.
func TestAllTrackersImplementInterface(t *testing.T) {
	geom := testGeom()
	trackers := []rh.Tracker{
		testutil.Must(NewGraphene(geom, testTRH)),
		testutil.Must(NewOCPR(geom, testTRH)),
		testutil.Must(NewPARA(testTRH, 1e-9, 1)),
		testutil.Must(NewCRA(geom, testTRH, 4096, rh.NullSink{})),
		testutil.Must(NewTWiCE(geom, testTRH, 0)),
		testutil.Must(NewCAT(geom, testTRH, 0)),
		testutil.Must(NewDCBF(geom, testTRH, 0, 1)),
	}
	names := map[string]bool{}
	for _, tr := range trackers {
		if tr.Name() == "" || names[tr.Name()] {
			t.Fatalf("bad or duplicate name %q", tr.Name())
		}
		names[tr.Name()] = true
		if tr.SRAMBytes() <= 0 {
			t.Errorf("%s: SRAMBytes = %d", tr.Name(), tr.SRAMBytes())
		}
		if tr.Name() != "cra" && tr.MetaRows() != 0 {
			t.Errorf("%s: unexpected MetaRows %d", tr.Name(), tr.MetaRows())
		}
		if tr.ActivateMeta(0) {
			t.Errorf("%s: ActivateMeta returned true", tr.Name())
		}
		tr.Activate(rh.Row(0))
		tr.ResetWindow()
	}
}

// TestMisraGriesVictimIsReproducible drives capacity+1 rows round-robin
// through one bank, a quarter of the accesses going to random rows of
// that bank, so the full table keeps replacing entries at the spillover
// floor. Reruns must mitigate the same rows at the same activations:
// Graphene, DAPPER and START used to take the floor victim in Go's
// randomized map order.
func TestMisraGriesVictimIsReproducible(t *testing.T) {
	geom := Geometry{Rows: 1024, RowsPerBank: 256, Banks: 4, ACTMax: 80}
	cases := []struct {
		name string
		make func() (rh.Tracker, int) // tracker and its table capacity
	}{
		{"graphene", func() (rh.Tracker, int) {
			g := testutil.Must(NewGraphene(geom, 20))
			return g, g.EntriesPerBank()
		}},
		{"dapper", func() (rh.Tracker, int) {
			d := testutil.Must(NewDAPPER(geom, 20))
			return d, d.EntriesPerBank()
		}},
		{"start", func() (rh.Tracker, int) {
			s := testutil.Must(NewSTART(geom, 20, 40*StartEntryBytes))
			return s, s.Capacity()
		}},
	}
	probe := func(tr rh.Tracker, capacity int) []int {
		var mitigs []int
		for i, row := range misraGriesProbeRows(capacity, geom.RowsPerBank) {
			if tr.Activate(row) {
				mitigs = append(mitigs, i, int(row))
			}
		}
		return mitigs
	}
	for _, c := range cases {
		want := probe(c.make())
		if len(want) == 0 {
			t.Fatalf("%s: the probe issued no mitigations", c.name)
		}
		for run := 1; run < 10; run++ {
			if got := probe(c.make()); !slices.Equal(got, want) {
				t.Errorf("%s: rerun %d mitigated differently from the first run", c.name, run)
				break
			}
		}
	}
}

// misraGriesProbeRows is the activation sequence of
// TestMisraGriesVictimIsReproducible: capacity+1 rows round-robin, a
// quarter of the accesses replaced by random rows of the first
// rowsPerBank, so a full table keeps replacing entries at the floor.
func misraGriesProbeRows(capacity, rowsPerBank int) []rh.Row {
	rng := rand.New(rand.NewSource(7))
	rows := make([]rh.Row, 20000)
	for i := range rows {
		rows[i] = rh.Row(i % (capacity + 1))
		if rng.Intn(4) == 0 {
			rows[i] = rh.Row(rng.Intn(rowsPerBank))
		}
	}
	return rows
}

// logSink records metadata traffic in order: offset*2 for a read,
// offset*2+1 for a write.
type logSink struct{ ops []uint64 }

func (s *logSink) MetaRead(off uint64)  { s.ops = append(s.ops, off*2) }
func (s *logSink) MetaWrite(off uint64) { s.ops = append(s.ops, off*2+1) }

// flatCRA is the reference CRA: one flat counter per row, all cleared
// at each window reset, behind the same line-granularity cache.
type flatCRA struct {
	threshold int
	mc        *cache.SetAssoc
	counts    []uint16
	sink      rh.MemSink
}

func (c *flatCRA) activate(row rh.Row) bool {
	line := uint64(row) / craRowsPerLine
	if _, ok := c.mc.Lookup(line); !ok {
		c.sink.MetaRead(line * 64)
		if victim, evicted := c.mc.Insert(line, 0, false); evicted && victim.Dirty {
			c.sink.MetaWrite(victim.Key * 64)
		}
	}
	c.mc.Update(line, 0)
	c.counts[row]++
	if int(c.counts[row]) >= c.threshold {
		c.counts[row] = 0
		return true
	}
	return false
}

// TestCRAMatchesFlatReference pins CRA's paged counters against the
// flat table across window resets: every mitigation, every row's count
// and the metadata traffic must agree.
func TestCRAMatchesFlatReference(t *testing.T) {
	geom := Geometry{Rows: 5*rh.CounterPageRows + 300} // CRA reads only Rows
	var got, want logSink
	c := testutil.Must(NewCRA(geom, testTRH, 1024, &got))
	mc, err := cache.New(16, 16, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	ref := &flatCRA{threshold: c.Threshold(), mc: mc, counts: make([]uint16, geom.Rows), sink: &want}
	rng := rand.New(rand.NewSource(3))
	mitigs := 0
	for i := 0; i < 60000; i++ {
		if rng.Intn(5000) == 0 {
			for r, n := range ref.counts {
				if c.Count(rh.Row(r)) != int(n) {
					t.Fatalf("act %d, before reset: row %d counts %d, reference %d", i, r, c.Count(rh.Row(r)), n)
				}
			}
			c.ResetWindow()
			ref.mc.Reset()
			clear(ref.counts)
		}
		row := rh.Row(rng.Intn(geom.Rows))
		if rng.Intn(2) == 0 {
			row = rh.Row(rng.Intn(12) * 1709) // hot rows across pages
		}
		m := c.Activate(row)
		if m != ref.activate(row) {
			t.Fatalf("act %d: row %d mitigation %v, reference %v", i, row, m, !m)
		}
		if m {
			mitigs++
		}
	}
	for r, n := range ref.counts {
		if c.Count(rh.Row(r)) != int(n) {
			t.Fatalf("row %d counts %d, reference %d", r, c.Count(rh.Row(r)), n)
		}
	}
	if mitigs == 0 || int64(mitigs) != c.Mitigations {
		t.Fatalf("%d mitigations, tracker reports %d", mitigs, c.Mitigations)
	}
	if !slices.Equal(got.ops, want.ops) {
		t.Fatalf("metadata traffic differs: %d ops, reference %d", len(got.ops), len(want.ops))
	}
}
