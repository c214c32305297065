package track

import (
	"math/rand"
	"testing"

	"repro/internal/rh"
	"repro/internal/testutil"
)

// --- START ---

func TestSTARTHammerMitigatedEveryThreshold(t *testing.T) {
	s := testutil.Must(NewSTART(testGeom(), testTRH, 0))
	row := rh.Row(7)
	mitigs := 0
	for i := 1; i <= 200; i++ {
		if s.Activate(row) {
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

func TestSTARTGuaranteeSizing(t *testing.T) {
	geom := testGeom()
	s := testutil.Must(NewSTART(geom, testTRH, 0))
	// ceil(Banks*ACTMax / (TRH/2)) = ceil(4*10000/50) = 800 entries.
	if got := s.Capacity(); got != 800 {
		t.Errorf("capacity = %d, want 800", got)
	}
	if got := s.SRAMBytes(); got != 800*StartEntryBytes {
		t.Errorf("borrowed bytes = %d, want %d", got, 800*StartEntryBytes)
	}
	// An explicit LLC budget overrides the guarantee sizing.
	small := testutil.Must(NewSTART(geom, testTRH, 1024))
	if got := small.Capacity(); got != 1024/StartEntryBytes {
		t.Errorf("budgeted capacity = %d, want %d", got, 1024/StartEntryBytes)
	}
}

// TestSTARTSecurityUnderCrossBankThrash hammers one row while
// thrashing the shared pool from every bank: the pooled guarantee
// sizing must still mitigate within the operating threshold.
func TestSTARTSecurityUnderCrossBankThrash(t *testing.T) {
	geom := testGeom()
	s := testutil.Must(NewSTART(geom, testTRH, 0))
	rng := rand.New(rand.NewSource(1))
	trueCount := make(map[rh.Row]int)
	target := rh.Row(3)
	for acts := 0; acts < geom.Banks*geom.ACTMax/4; acts++ {
		var row rh.Row
		if acts%3 == 0 {
			row = target
		} else {
			row = rh.Row(rng.Intn(geom.Rows)) // any bank
		}
		trueCount[row]++
		if s.Activate(row) {
			trueCount[row] = 0
		}
		if trueCount[row] >= testTRH {
			t.Fatalf("row %d reached %d true activations without mitigation (act %d)",
				row, trueCount[row], acts)
		}
	}
}

// TestSTARTUnderProvisionedPoolEvaded shows the configurability
// trade-off: with a pool far below the guarantee sizing, an eviction
// storm keeps the spillover floor low while a target accumulates true
// activations untracked.
func TestSTARTUnderProvisionedPoolEvaded(t *testing.T) {
	geom := testGeom()
	s := testutil.Must(NewSTART(geom, testTRH, 16*StartEntryBytes)) // 16 entries vs 800 guaranteed
	target := rh.Row(3)
	trueActs, mitigs := 0, 0
	for i := 0; i < 20000; i++ {
		if i%40 == 0 {
			trueActs++
			if s.Activate(target) {
				mitigs++
			}
			continue
		}
		s.Activate(rh.Row(uint32(4 + i%996))) // storm of distinct rows
	}
	if trueActs < testTRH {
		t.Fatalf("test bug: only %d true activations", trueActs)
	}
	// The storm inflates every inherited estimate equally, so the
	// floor-inherited counts dominate and the pool cannot single out
	// the target: mitigations stay far below trueActs/threshold while
	// the spillover floor soaks up the pressure.
	if s.Spillover() == 0 {
		t.Error("eviction storm never raised the spillover floor")
	}
}

func TestSTARTValidation(t *testing.T) {
	if _, err := NewSTART(Geometry{}, testTRH, 0); err == nil {
		t.Error("empty geometry accepted")
	}
	if _, err := NewSTART(testGeom(), 1, 0); err == nil {
		t.Error("TRH=1 accepted")
	}
	if _, err := NewSTART(testGeom(), testTRH, -1); err == nil {
		t.Error("negative LLC budget accepted")
	}
	if _, err := NewSTART(testGeom(), testTRH, 4); err == nil {
		t.Error("sub-entry LLC budget accepted")
	}
}

// --- MINT ---

func TestMINTDefaultInterval(t *testing.T) {
	m := testutil.Must(NewMINT(testGeom(), testTRH, 0, 1))
	if got := m.Interval(); got != testTRH/4 {
		t.Errorf("interval = %d, want %d", got, testTRH/4)
	}
	if got := m.SRAMBytes(); got != 4*testGeom().Banks {
		t.Errorf("SRAM = %d, want %d", got, 4*testGeom().Banks)
	}
}

// TestMINTCatchesNaiveHammer: a single-row hammer owns every slot in
// its bank, so it is mitigated once per interval — far more often
// than the threshold requires.
func TestMINTCatchesNaiveHammer(t *testing.T) {
	m := testutil.Must(NewMINT(testGeom(), testTRH, 0, 7))
	row := rh.Row(5)
	mitigs := 0
	acts := 40 * m.Interval()
	for i := 0; i < acts; i++ {
		if m.Activate(row) {
			mitigs++
		}
	}
	if mitigs != 40 {
		t.Fatalf("mitigations = %d, want one per interval (40)", mitigs)
	}
}

// TestMINTSelectionIsUniformish: over many intervals the mitigated
// positions should spread across the interval rather than cluster.
func TestMINTSelectionIsUniformish(t *testing.T) {
	m := testutil.Must(NewMINT(testGeom(), testTRH, 8, 11))
	hits := make([]int, 8)
	rows := make([]rh.Row, 8)
	for i := range rows {
		rows[i] = rh.Row(uint32(i)) // all bank 0, distinct rows
	}
	for interval := 0; interval < 4000; interval++ {
		for pos, row := range rows {
			if m.Activate(row) {
				hits[pos]++
			}
		}
	}
	for pos, h := range hits {
		if h < 300 || h > 700 {
			t.Errorf("position %d selected %d/4000 times, want ~500", pos, h)
		}
	}
}

// TestMINTDilutionEvadesAtUltraLowThreshold is the arena's mint-dilute
// adversary in miniature: fill every interval with W distinct rows so
// each row survives an interval with probability 1-1/W, and hammer
// long enough for a victim to take T_RH true activations. With
// W = 125 (T_RH 500) a row escapes all ~500 selections with
// probability (1-1/125)^500 ≈ 1.8%; across 125 rows and a fixed seed,
// at least one row deterministically reaches T_RH unmitigated.
func TestMINTDilutionEvadesAtUltraLowThreshold(t *testing.T) {
	const trh = 500
	geom := testGeom()
	m := testutil.Must(NewMINT(geom, trh, 0, 3))
	w := m.Interval() // 125
	rows := make([]rh.Row, w)
	for i := range rows {
		rows[i] = rh.Row(uint32(i)) // one bank
	}
	trueCount := make(map[rh.Row]int)
	escaped := false
	for round := 0; round < trh+40 && !escaped; round++ {
		for _, row := range rows {
			trueCount[row]++
			if m.Activate(row) {
				trueCount[row] = 0
			}
			if trueCount[row] >= trh {
				escaped = true
			}
		}
	}
	if !escaped {
		t.Fatal("dilution pattern never pushed a row past T_RH; seed-dependent escape lost")
	}
}

func TestMINTValidation(t *testing.T) {
	if _, err := NewMINT(Geometry{}, testTRH, 0, 1); err == nil {
		t.Error("empty geometry accepted")
	}
	if _, err := NewMINT(testGeom(), 1, 0, 1); err == nil {
		t.Error("TRH=1 accepted")
	}
	if _, err := NewMINT(testGeom(), testTRH, -5, 1); err == nil {
		t.Error("negative interval accepted")
	}
}

// --- DAPPER ---

func TestDAPPERMitigatesEarly(t *testing.T) {
	d := testutil.Must(NewDAPPER(testGeom(), testTRH))
	row := rh.Row(7)
	cut := d.Threshold() - d.jitter(row)
	if cut <= 0 || cut > d.Threshold() {
		t.Fatalf("jittered cut %d out of range (threshold %d)", cut, d.Threshold())
	}
	for i := 1; i <= 2*d.Threshold(); i++ {
		if d.Activate(row) {
			if i != cut {
				t.Fatalf("first mitigation at activation %d, want %d", i, cut)
			}
			return
		}
		if i > cut {
			t.Fatalf("activation %d passed cut %d without mitigation", i, cut)
		}
	}
	t.Fatal("never mitigated")
}

// TestDAPPERDesynchronizesHerd drives the performance attack DAPPER
// exists to blunt: many rows advanced in lockstep. Graphene mitigates
// them all at the same activation count; DAPPER spreads the
// mitigation instants across the jitter band.
func TestDAPPERDesynchronizesHerd(t *testing.T) {
	geom := testGeom()
	d := testutil.Must(NewDAPPER(geom, testTRH))
	g := testutil.Must(NewGraphene(geom, testTRH))
	rows := make([]rh.Row, 32)
	for i := range rows {
		rows[i] = rh.Row(uint32(i)) // one bank
	}
	distinct := make(map[int]struct{})
	grapheneRounds := make(map[int]struct{})
	for round := 1; round <= testTRH/2; round++ {
		for _, row := range rows {
			if d.Activate(row) {
				distinct[round] = struct{}{}
			}
			if g.Activate(row) {
				grapheneRounds[round] = struct{}{}
			}
		}
	}
	if len(grapheneRounds) != 1 {
		t.Fatalf("graphene herd mitigated across %d rounds, want exactly 1 (synchronized)", len(grapheneRounds))
	}
	if len(distinct) < 5 {
		t.Fatalf("dapper herd mitigated across %d rounds, want spread over the jitter band", len(distinct))
	}
}

func TestDAPPERJitterStableAcrossEvictions(t *testing.T) {
	d := testutil.Must(NewDAPPER(testGeom(), testTRH))
	row := rh.Row(42)
	j := d.jitter(row)
	for i := 0; i < 100; i++ {
		if got := d.jitter(row); got != j {
			t.Fatalf("jitter changed from %d to %d", j, got)
		}
	}
}

func TestDAPPERSizingPremiumOverGraphene(t *testing.T) {
	geom := BaselineGeometry()
	d := testutil.Must(NewDAPPER(geom, 500))
	g := testutil.Must(NewGraphene(geom, 500))
	if d.EntriesPerBank() <= g.EntriesPerBank() {
		t.Errorf("dapper entries/bank %d should exceed graphene's %d (early mitigation premium)",
			d.EntriesPerBank(), g.EntriesPerBank())
	}
	// Effective threshold 3t/4 → ~4/3 the entries, at 5 B each.
	if d.EntriesPerBank() > 2*g.EntriesPerBank() {
		t.Errorf("dapper entries/bank %d over twice graphene's %d", d.EntriesPerBank(), g.EntriesPerBank())
	}
}

func TestDAPPERValidation(t *testing.T) {
	if _, err := NewDAPPER(Geometry{}, testTRH); err == nil {
		t.Error("empty geometry accepted")
	}
	if _, err := NewDAPPER(testGeom(), 1); err == nil {
		t.Error("TRH=1 accepted")
	}
}

func TestArenaTrackersInterface(t *testing.T) {
	for _, tr := range []rh.Tracker{
		testutil.Must(NewSTART(testGeom(), testTRH, 0)),
		testutil.Must(NewMINT(testGeom(), testTRH, 0, 1)),
		testutil.Must(NewDAPPER(testGeom(), testTRH)),
	} {
		if tr.SRAMBytes() <= 0 {
			t.Errorf("%s: interface contract broken", tr.Name())
		}
		tr.Activate(rh.Row(0))
		tr.ResetWindow()
	}
}
