package mitigate

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/rh"
)

func smallHydra(t *testing.T) *core.Tracker {
	t.Helper()
	cfg := core.Config{
		Rows:       4096,
		TRH:        100,
		GCTEntries: 32,
		RCCEntries: 64,
		RCCWays:    8,
		RowBytes:   8192,
	}
	return core.MustNew(cfg, rh.NullSink{})
}

func TestVictimsInterior(t *testing.T) {
	c := dram.Baseline()
	agg := rh.Row(c.GlobalRow(dram.Loc{Channel: 0, Bank: 2, Row: 1000}))
	v := Victims(agg, DefaultBlast, c.RowsPerBank)
	if len(v) != 4 {
		t.Fatalf("victims = %v, want 4 rows", v)
	}
	want := map[rh.Row]bool{agg - 2: true, agg - 1: true, agg + 1: true, agg + 2: true}
	for _, row := range v {
		if !want[row] {
			t.Fatalf("unexpected victim %d (aggressor %d)", row, agg)
		}
	}
}

func TestVictimsClippedAtBankEdges(t *testing.T) {
	c := dram.Baseline()
	first := rh.Row(c.GlobalRow(dram.Loc{Channel: 0, Bank: 0, Row: 0}))
	if v := Victims(first, DefaultBlast, c.RowsPerBank); len(v) != 2 {
		t.Fatalf("victims at row 0 = %v, want 2 rows", v)
	}
	last := rh.Row(c.GlobalRow(dram.Loc{Channel: 0, Bank: 0, Row: c.RowsPerBank - 1}))
	if v := Victims(last, DefaultBlast, c.RowsPerBank); len(v) != 2 {
		t.Fatalf("victims at last row = %v, want 2 rows", v)
	}
	second := rh.Row(c.GlobalRow(dram.Loc{Channel: 0, Bank: 0, Row: 1}))
	if v := Victims(second, DefaultBlast, c.RowsPerBank); len(v) != 3 {
		t.Fatalf("victims at row 1 = %v, want 3 rows", v)
	}
}

func TestVictimsStayInBank(t *testing.T) {
	c := dram.Baseline()
	f := func(raw uint32, blastRaw uint8) bool {
		row := rh.Row(raw % uint32(c.TotalRows()))
		blast := int(blastRaw%4) + 1
		bank := int(row) / c.RowsPerBank
		for _, v := range Victims(row, blast, c.RowsPerBank) {
			if int(v)/c.RowsPerBank != bank {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRefresherIssuesVictimRefreshes(t *testing.T) {
	r := NewRefresher(smallHydra(t), DefaultBlast, 4096)
	target := rh.Row(1000)
	var extras []rh.Row
	for i := 0; i < 50; i++ {
		extras = append(extras, r.Activate(target)...)
	}
	if r.Mitigations != 1 {
		t.Fatalf("Mitigations = %d, want 1 after 50 activations (TH=50)", r.Mitigations)
	}
	if len(extras) != 4 {
		t.Fatalf("victim refreshes = %v, want 4 rows", extras)
	}
	want := map[rh.Row]bool{998: true, 999: true, 1001: true, 1002: true}
	for _, v := range extras {
		if !want[v] {
			t.Fatalf("unexpected victim %d", v)
		}
	}
}

// TestVictimActivationsAreTracked is the Half-Double defense: the
// activations performed by victim refreshes must count toward the
// victims' own activation totals. Hammering the aggressor hard enough
// must eventually mitigate its neighbours too.
func TestVictimActivationsAreTracked(t *testing.T) {
	h := smallHydra(t)
	r := NewRefresher(h, DefaultBlast, 4096)
	target := rh.Row(1000)
	neighbourMitigated := false
	// 50 * TH activations of the aggressor give the distance-1 row 50
	// refresh-activations, driving it toward its own threshold.
	for i := 0; i < 50*50*3; i++ {
		for _, v := range r.Activate(target) {
			_ = v
		}
	}
	// The neighbour at distance 1 received ~150 activations from
	// mitigations; with TH=50 it must have been mitigated itself,
	// which shows up as extra mitigations beyond the aggressor's.
	aggressorMitigs := int64(50 * 3)
	if r.Mitigations > aggressorMitigs {
		neighbourMitigated = true
	}
	if !neighbourMitigated {
		t.Fatalf("mitigations = %d, want > %d (victim feedback must be tracked)",
			r.Mitigations, aggressorMitigs)
	}
}

func TestRefresherRoutesMetaRows(t *testing.T) {
	h := smallHydra(t)
	r := NewRefresher(h, DefaultBlast, 4096)
	metaRow := rh.Row(4095)
	r.MetaOf = func(row rh.Row) (int, bool) {
		if row == metaRow {
			return 0, true
		}
		return 0, false
	}
	// TH activations of the metadata row trigger the RIT-ACT guard.
	mitigs := r.Mitigations
	for i := 0; i < 50; i++ {
		r.Activate(metaRow)
	}
	if r.Mitigations != mitigs+1 {
		t.Fatalf("meta mitigations = %d, want 1", r.Mitigations-mitigs)
	}
	if h.Stats().MetaActs != 50 {
		t.Fatalf("MetaActs = %d, want 50", h.Stats().MetaActs)
	}
}

func TestRefresherEdgeRows(t *testing.T) {
	r := NewRefresher(smallHydra(t), DefaultBlast, 4096)
	// Row 0 has no left neighbours; mitigation refreshes only 2 rows.
	var extras []rh.Row
	for i := 0; i < 50; i++ {
		extras = append(extras, r.Activate(rh.Row(0))...)
	}
	if len(extras) != 2 {
		t.Fatalf("victims of row 0 = %v, want 2", extras)
	}
}

func TestNewRefresherValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad blast should panic")
		}
	}()
	NewRefresher(smallHydra(t), 0, 4096)
}

func TestResetWindowForwarded(t *testing.T) {
	h := smallHydra(t)
	r := NewRefresher(h, DefaultBlast, 4096)
	for i := 0; i < 49; i++ {
		r.Activate(rh.Row(7))
	}
	r.ResetWindow()
	if got := h.GCTValue(rh.Row(7)); got != 0 {
		t.Fatalf("GCT after forwarded reset = %d", got)
	}
}

// brokenTracker always demands mitigation: the cascade cap must trip
// rather than loop forever.
type brokenTracker struct{}

func (brokenTracker) Name() string         { return "broken" }
func (brokenTracker) Activate(rh.Row) bool { return true }
func (brokenTracker) ResetWindow()         {}
func (brokenTracker) SRAMBytes() int       { return 1 }

func TestCascadeCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("runaway cascade should panic")
		}
	}()
	r := NewRefresher(brokenTracker{}, 2, 4096)
	r.Activate(rh.Row(100))
}
