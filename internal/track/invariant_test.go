package track

import (
	"math/rand"
	"testing"

	"repro/internal/rh"
	"repro/internal/testutil"
)

// Property-based tracker invariant (ROADMAP item 5): for every
// deterministic scheme, under randomized mixes of hammering and
// background traffic, a mitigation must be issued at-or-before every
// T_RH true activations of any row. Probabilistic schemes (PARA,
// MINT, ProHIT, MRLoC) cannot satisfy this deterministically and are
// covered by fixed-seed statistical tests instead.

type invariantCase struct {
	name string
	make func(geom Geometry, trh int) rh.Tracker
}

func invariantTrackers() []invariantCase {
	return []invariantCase{
		{"graphene", func(g Geometry, trh int) rh.Tracker { return testutil.Must(NewGraphene(g, trh)) }},
		{"start", func(g Geometry, trh int) rh.Tracker { return testutil.Must(NewSTART(g, trh, 0)) }},
		{"dapper", func(g Geometry, trh int) rh.Tracker { return testutil.Must(NewDAPPER(g, trh)) }},
		{"ocpr", func(g Geometry, trh int) rh.Tracker { return testutil.Must(NewOCPR(g, trh)) }},
	}
}

// randomizedWorkload drives acts activations: a set of aggressors
// hammered with per-row weights, against background rows drawn from
// the whole address space, asserting the invariant on every step.
func assertMitigationInvariant(t *testing.T, tr rh.Tracker, geom Geometry, trh int, rng *rand.Rand, acts int) {
	t.Helper()
	aggressors := make([]rh.Row, 1+rng.Intn(8))
	for i := range aggressors {
		aggressors[i] = rh.Row(rng.Intn(geom.Rows))
	}
	hammerFrac := 2 + rng.Intn(5) // hammer 1/hammerFrac of the time
	trueCount := make(map[rh.Row]int)
	for i := 0; i < acts; i++ {
		var row rh.Row
		if i%hammerFrac == 0 {
			row = aggressors[rng.Intn(len(aggressors))]
		} else {
			row = rh.Row(rng.Intn(geom.Rows))
		}
		trueCount[row]++
		if tr.Activate(row) {
			trueCount[row] = 0
		}
		if trueCount[row] >= trh {
			t.Fatalf("%s: row %d reached %d true activations without mitigation (act %d)",
				tr.Name(), row, trueCount[row], i)
		}
	}
}

func TestTrackerMitigationInvariant(t *testing.T) {
	geom := testGeom()
	for _, tc := range invariantTrackers() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				rng := rand.New(rand.NewSource(int64(1000*trial + 17)))
				tr := tc.make(geom, testTRH)
				assertMitigationInvariant(t, tr, geom, testTRH, rng, geom.ACTMax)
			}
		})
	}
}

// TestTrackerMitigationInvariantUltraLow re-checks the invariant at
// the paper's ultra-low threshold on a scaled geometry, where table
// sizing is under the most pressure.
func TestTrackerMitigationInvariantUltraLow(t *testing.T) {
	geom := Geometry{Rows: 4096, RowsPerBank: 512, Banks: 8, ACTMax: 40000}
	const trh = 64
	for _, tc := range invariantTrackers() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				rng := rand.New(rand.NewSource(int64(77*trial + 5)))
				tr := tc.make(geom, trh)
				assertMitigationInvariant(t, tr, geom, trh, rng, geom.ACTMax)
			}
		})
	}
}

// TestMINTStatisticalInvariant is MINT's stand-in for the
// deterministic invariant: with a fixed seed, a naive hammer must
// never accumulate T_RH true activations (each interval it owns every
// slot), even though the dilution adversary can evade (see
// TestMINTDilutionEvadesAtUltraLowThreshold).
func TestMINTStatisticalInvariant(t *testing.T) {
	geom := testGeom()
	m := testutil.Must(NewMINT(geom, testTRH, 0, 9))
	row := rh.Row(11)
	trueCount := 0
	for i := 0; i < geom.ACTMax; i++ {
		trueCount++
		if m.Activate(row) {
			trueCount = 0
		}
		if trueCount >= testTRH {
			t.Fatalf("naive hammer reached %d true activations at act %d", trueCount, i)
		}
	}
}
