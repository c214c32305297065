package attack

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rh"
	"repro/internal/testutil"
	"repro/internal/track"
)

// arenaGeom gives the adversaries a realistic one-window activation
// budget at the paper's ultra-low threshold.
func arenaGeom() track.Geometry {
	return track.Geometry{Rows: 4096, RowsPerBank: 1024, Banks: 4, ACTMax: 100000}
}

const arenaTRH = 500

func arenaHydra(t *testing.T) *core.Tracker {
	t.Helper()
	return core.MustNew(core.Config{
		Rows:       4096,
		TRH:        arenaTRH,
		GCTEntries: 32,
		RCCEntries: 64,
		RCCWays:    8,
		RowBytes:   8192,
	}, rh.NullSink{})
}

func runAdversary(t *testing.T, tr rh.Tracker, a Adversary) Result {
	t.Helper()
	geom := arenaGeom()
	return Run(tr, a.Pattern(geom, arenaTRH), Config{
		TRH:         arenaTRH,
		RowsPerBank: geom.RowsPerBank,
		ActsPerWin:  a.Acts(geom, arenaTRH),
		Windows:     1,
	})
}

func TestAdversariesWellFormed(t *testing.T) {
	geom := arenaGeom()
	seen := map[string]bool{}
	for _, a := range Adversaries() {
		if a.Key == "" || a.Description == "" || len(a.Targets) == 0 {
			t.Errorf("adversary %+v missing metadata", a)
		}
		if seen[a.Key] {
			t.Errorf("duplicate adversary key %q", a.Key)
		}
		seen[a.Key] = true
		if a.Pattern(geom, arenaTRH) == nil {
			t.Errorf("%s: nil pattern", a.Key)
		}
		rows := a.Rows(geom, arenaTRH)
		if len(rows) == 0 {
			t.Errorf("%s: empty AttackSpec rows", a.Key)
		}
		for _, r := range rows {
			if int(r) >= geom.Rows {
				t.Errorf("%s: row %d outside geometry", a.Key, r)
			}
		}
		if acts := a.Acts(geom, arenaTRH); acts <= 0 || acts > geom.ACTMax {
			t.Errorf("%s: acts budget %d outside (0, ACTMax]", a.Key, acts)
		}
	}
	if _, err := AdversaryByKey("mint-dilute"); err != nil {
		t.Error(err)
	}
	if _, err := AdversaryByKey("bogus"); err == nil {
		t.Error("unknown adversary accepted")
	}
}

// TestHydraClassSurvivesAdversaries is half of the arena acceptance
// criterion: Hydra and the deterministically-sized trackers must
// withstand every adversary at T_RH = 500.
func TestHydraClassSurvivesAdversaries(t *testing.T) {
	geom := arenaGeom()
	makers := map[string]func() rh.Tracker{
		"hydra":    func() rh.Tracker { return arenaHydra(t) },
		"graphene": func() rh.Tracker { return testutil.Must(track.NewGraphene(geom, arenaTRH)) },
		"start":    func() rh.Tracker { return testutil.Must(track.NewSTART(geom, arenaTRH, 0)) },
		"dapper":   func() rh.Tracker { return testutil.Must(track.NewDAPPER(geom, arenaTRH)) },
		"ocpr":     func() rh.Tracker { return testutil.Must(track.NewOCPR(geom, arenaTRH)) },
	}
	for name, mk := range makers {
		for _, a := range Adversaries() {
			res := runAdversary(t, mk(), a)
			if !res.Safe() {
				t.Errorf("%s broken by %s: %d violations, first %+v",
					name, a.Key, len(res.Violations), res.Violations[0])
			}
		}
	}
}

// TestMINTDefeatedByDilution is the other half of the acceptance
// criterion: the dilution adversary pushes at least one row past
// T_RH = 500 against MINT with a fixed seed, while the naive patterns
// do not.
func TestMINTDefeatedByDilution(t *testing.T) {
	geom := arenaGeom()
	dilute, err := AdversaryByKey("mint-dilute")
	if err != nil {
		t.Fatal(err)
	}
	res := runAdversary(t, testutil.Must(track.NewMINT(geom, arenaTRH, 0, 3)), dilute)
	if res.Safe() {
		t.Fatalf("mint survived dilution: maxUnmitig=%d (fixed-seed escape lost)", res.MaxUnmitig)
	}

	// Control: a single-sided hammer is caught every interval.
	single := Run(testutil.Must(track.NewMINT(geom, arenaTRH, 0, 3)), &SingleSided{Target: 9}, Config{
		TRH:         arenaTRH,
		RowsPerBank: geom.RowsPerBank,
		ActsPerWin:  geom.ACTMax / 2,
		Windows:     1,
	})
	if !single.Safe() {
		t.Errorf("mint broken by single-sided hammer: %+v", single.Violations[0])
	}
}

// TestBudgetSTARTBrokenByEvictionStorm: with the pool cut far below
// the guarantee sizing, the eviction storm keeps the target cycling
// through evict/re-insert at the spillover floor, resetting its
// since-mitigation delta every time — the target takes T_RH true
// activations with no mitigation. The guarantee-sized pool tracks the
// same storm exactly and stays safe.
func TestBudgetSTARTBrokenByEvictionStorm(t *testing.T) {
	geom := arenaGeom()
	storm, err := AdversaryByKey("rcc-evict")
	if err != nil {
		t.Fatal(err)
	}
	budget := testutil.Must(track.NewSTART(geom, arenaTRH, 32*8)) // 32 entries
	resBudget := runAdversary(t, budget, storm)
	full := testutil.Must(track.NewSTART(geom, arenaTRH, 0))
	resFull := runAdversary(t, full, storm)
	if !resFull.Safe() {
		t.Fatalf("guarantee-sized start broken by eviction storm: %+v", resFull.Violations[0])
	}
	if resBudget.Safe() {
		t.Fatalf("under-provisioned start survived the eviction storm: maxUnmitig=%d mitig=%d",
			resBudget.MaxUnmitig, resBudget.Mitigations)
	}
}

// TestMitigStormDesynchronizedByDAPPER: the synchronized-herd
// performance attack concentrates Graphene's mitigations into a burst;
// DAPPER's per-row jitter spreads the same work out.
func TestMitigStormDesynchronizedByDAPPER(t *testing.T) {
	geom := arenaGeom()
	storm, err := AdversaryByKey("mitig-storm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		TRH:         arenaTRH,
		RowsPerBank: geom.RowsPerBank,
		ActsPerWin:  storm.Acts(geom, arenaTRH),
	}
	gPeak, gTotal := MitigationBurst(testutil.Must(track.NewGraphene(geom, arenaTRH)), storm.Pattern(geom, arenaTRH), cfg, stormHerd)
	dPeak, dTotal := MitigationBurst(testutil.Must(track.NewDAPPER(geom, arenaTRH)), storm.Pattern(geom, arenaTRH), cfg, stormHerd)
	t.Logf("storm peaks: graphene=%d/%d dapper=%d/%d (peak/total)", gPeak, gTotal, dPeak, dTotal)
	if gTotal == 0 || dTotal == 0 {
		t.Fatal("storm produced no mitigations")
	}
	if dPeak*2 > gPeak {
		t.Errorf("dapper peak burst %d not clearly below graphene's %d", dPeak, gPeak)
	}
}
