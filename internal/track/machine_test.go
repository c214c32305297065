package track_test

// Property-based state machine driving every arena tracker scheme
// against the attack.Oracle reference (the true per-row activation
// count with the paper's two-window straddle semantics). The machine
// generates ACT/REF/reset interleavings — targeted hammers, round-robin
// sweeps, the internal/attack adversarial patterns, and window resets
// at arbitrary points — and checks the Theorem-1 invariant: a
// mitigation is issued at or before every T_RH true activations of a
// row.
//
// Scheme classes (docs/TESTING.md catalogs the reasoning):
//   - deterministic: the invariant must hold on every generated run;
//   - pressure-gated: the invariant must hold unless the scheme's own
//     overflow counter shows its capacity was exceeded (the designed
//     weakness the arena quantifies);
//   - probabilistic: no per-run guarantee exists, so the suite bounds
//     the violation *rate* over the generated corpus instead.

import (
	"fmt"
	"testing"

	"repro/internal/attack"
	"repro/internal/exp"
	"repro/internal/mitigate"
	"repro/internal/proptest"
	"repro/internal/rh"
	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/track"
)

// machineGeom mirrors the arena's functional security geometry: small
// enough that capacity pressure is reachable within a test budget.
func machineGeom() track.Geometry {
	return track.Geometry{Rows: 4096, RowsPerBank: 1024, Banks: 4, ACTMax: 100000}
}

// machineTRH is the oracle threshold; trackers operate at half of it.
const machineTRH = 128

// machineBudget caps true activations per generated run so one case
// stays fast even when every op draws its maximum length.
const machineBudget = 2500

type schemeClass int

const (
	classDeterministic schemeClass = iota
	classPressure                  // safe unless its overflow counter fired
	classProbabilistic             // rate-bounded over the corpus, not per run
)

func classify(scheme string) schemeClass {
	switch scheme {
	case "hydra", "graphene", "cra", "ocpr", "start", "dapper":
		return classDeterministic
	case "twice", "cat", "start-budget":
		return classPressure
	case "para", "mint", "prohit", "mrloc":
		return classProbabilistic
	}
	panic("unknown scheme " + scheme)
}

// excused reports whether a violation on a pressure-gated scheme is the
// documented capacity weakness rather than a logic bug: the tracker's
// own pressure counter must have fired.
func excused(tr rh.Tracker) (string, bool) {
	switch t := tr.(type) {
	case *track.TWiCE:
		return fmt.Sprintf("Overflows=%d", t.Overflows), t.Overflows > 0
	case *track.CAT:
		return fmt.Sprintf("UnsafeMitigations=%d", t.UnsafeMitigations), t.UnsafeMitigations > 0
	case *track.START:
		// The lifetime counters, not Spillover(): the current floor
		// lives in the pool and is wiped by ResetWindow, which is
		// exactly the hole the machine's first catch shrank down to
		// (see TestRegressionSTARTBudgetResetErasesPressure).
		return fmt.Sprintf("Evictions=%d SpilloverPeak=%d", t.Evictions, t.SpilloverPeak),
			t.Evictions > 0 || t.SpilloverPeak > 0
	}
	return "", false
}

// machineRun is one generated episode: a fresh tracker behind the
// victim-refresh policy, observed by the oracle.
type machineRun struct {
	ref    *mitigate.Refresher
	oracle *attack.Oracle
	acts   int
}

func newMachineRun(tb testing.TB, scheme string, seed uint64) *machineRun {
	geom := machineGeom()
	tr, err := exp.ArenaFuncTracker(sim.TrackerKind(scheme), geom, machineTRH, seed)
	if err != nil {
		tb.Fatalf("construct %s: %v", scheme, err)
	}
	oracle := attack.NewOracle(machineTRH)
	ref := mitigate.NewRefresher(tr, mitigate.DefaultBlast, geom.RowsPerBank)
	ref.Observer = oracle
	return &machineRun{ref: ref, oracle: oracle}
}

func (m *machineRun) act(row rh.Row) {
	if m.acts >= machineBudget {
		return
	}
	m.acts++
	m.oracle.Step()
	m.ref.Activate(row)
}

// aggressorPool holds the rows the hammer op concentrates on: bank
// interiors plus both sides of bank boundaries, where victim clipping
// changes the blast radius.
var aggressorPool = []rh.Row{8, 9, 100, 512, 1022, 1023, 1024, 1025, 2048, 4095}

// machinePatterns builds the pattern menu for one drawn episode: the
// classic shapes plus every arena adversary's functional pattern.
func machinePatterns(geom track.Geometry) []attack.Pattern {
	ps := []attack.Pattern{
		&attack.SingleSided{Target: 8},
		&attack.DoubleSided{Victim: 100},
		&attack.ManySided{Base: 8, Sides: 8, Spacing: 1},
		&attack.ManySided{Base: 8, Sides: 32, Spacing: 2},
		&attack.HalfDouble{Victim: 100},
		&attack.Thrash{
			Target:     4,
			Distractor: func(i int) rh.Row { return rh.Row(8 + i%256) },
			Spread:     256,
			HammerEach: 4,
		},
	}
	for _, adv := range attack.Adversaries() {
		ps = append(ps, adv.Pattern(geom, machineTRH))
	}
	return ps
}

// driveMachine runs one generated episode and returns the finished run.
func driveMachine(t *proptest.T, tb testing.TB, scheme string) *machineRun {
	seed := proptest.Uint64().Draw(t, "seed")
	m := newMachineRun(tb, scheme, seed)
	geom := machineGeom()
	patterns := machinePatterns(geom)
	rowGen := proptest.SampledFrom(aggressorPool)
	burstGen := proptest.IntRange(1, 300)

	proptest.Repeat(t, map[string]func(*proptest.T){
		// Alphabetically first, so shrinking prefers it: a no-op-ish
		// single background touch.
		"background": func(t *proptest.T) {
			m.act(rh.Row(proptest.IntRange(0, geom.Rows-1).Draw(t, "row")))
		},
		"hammer": func(t *proptest.T) {
			row := rowGen.Draw(t, "row")
			k := burstGen.Draw(t, "k")
			for i := 0; i < k; i++ {
				m.act(row)
			}
		},
		"pattern": func(t *proptest.T) {
			p := patterns[proptest.IntRange(0, len(patterns)-1).Draw(t, "pattern")]
			k := burstGen.Draw(t, "k")
			for i := 0; i < k; i++ {
				m.act(p.Next())
			}
		},
		"reset": func(t *proptest.T) {
			m.ref.ResetWindow()
			m.oracle.WindowReset()
		},
		"sweep": func(t *proptest.T) {
			n := proptest.IntRange(2, 96).Draw(t, "n")
			k := proptest.IntRange(1, 4).Draw(t, "rounds")
			for r := 0; r < k; r++ {
				for i := 0; i < n; i++ {
					m.act(rh.Row(8 + i))
				}
			}
		},
	})
	m.oracle.Finish()
	return m
}

// deterministicProp is the Theorem-1 invariant for schemes with a
// deterministic guarantee: no generated run may violate the oracle.
func deterministicProp(tb testing.TB, scheme string) func(*proptest.T) {
	return func(pt *proptest.T) {
		m := driveMachine(pt, tb, scheme)
		if !m.oracle.Safe() {
			v := m.oracle.Violations[0]
			pt.Fatalf("%s: row %d reached %d unmitigated acts (T_RH=%d) at step %d",
				scheme, v.Row, v.Count, machineTRH, v.Step)
		}
	}
}

// pressureProp allows a violation only when the scheme's own lifetime
// capacity counter shows its table was overrun — the designed weakness.
func pressureProp(tb testing.TB, scheme string) func(*proptest.T) {
	return func(pt *proptest.T) {
		m := driveMachine(pt, tb, scheme)
		if m.oracle.Safe() {
			return
		}
		detail, ok := excused(m.ref.Tracker())
		if !ok {
			v := m.oracle.Violations[0]
			pt.Fatalf("%s: unexcused violation (row %d, count %d, %s): capacity counter silent, so this is a logic bug",
				scheme, v.Row, v.Count, detail)
		}
	}
}

// TestTrackerMachine runs the state machine over all 13 arena schemes.
func TestTrackerMachine(t *testing.T) {
	for _, kind := range exp.ArenaFuncSchemes() {
		scheme := string(kind)
		t.Run(scheme, func(t *testing.T) {
			switch classify(scheme) {
			case classDeterministic:
				proptest.Check(t, deterministicProp(t, scheme))
			case classPressure:
				proptest.Check(t, pressureProp(t, scheme))
			case classProbabilistic:
				// No per-run guarantee: bound the violation rate over
				// the deterministic generated corpus instead. The bound
				// is calibrated per scheme in probBound below.
				runs, viol := 0, 0
				proptest.Check(t, func(pt *proptest.T) {
					m := driveMachine(pt, t, scheme)
					runs++
					if !m.oracle.Safe() {
						viol++
					}
				})
				bound := probBound(t, scheme, runs)
				testutil.Logf(t, "%s: %d/%d runs violated (bound %d)", scheme, viol, runs, bound)
				if viol > bound {
					t.Errorf("%s: %d of %d generated runs violated the oracle, above the calibrated bound %d — the scheme got worse",
						scheme, viol, runs, bound)
				}
			}
		})
	}
}

// TestRegressionSTARTBudgetResetErasesPressure replays the machine's
// first shrunken catch: hammer one row past several mitigations, reset,
// run a 64-row storm through the 32-entry budgeted pool (evicting the
// hammered row between its activations so it never re-earns the
// mitigation threshold), hammer again across the window straddle, and
// reset — which used to wipe the pool's spillover floor, leaving the
// resulting oracle violation with no capacity-pressure evidence at all
// (Spillover()==0). START now keeps lifetime Evictions/SpilloverPeak
// counters across ResetWindow, so the run is recognized as the
// documented budget trade-off. The trace must replay clean.
func TestRegressionSTARTBudgetResetErasesPressure(t *testing.T) {
	proptest.ReplayTrace(t, []uint64{
		0x0, 0x6, 0x6, 0x0, 0xb409441591238217, 0x3, 0x0, 0x0, 0xc,
		0xe000000000000000, 0xe000000000000000, 0x59a28e7ff5daaf26,
		0x0, 0x3c24e7cddb38669, 0x8b0845c4ce480355,
	}, pressureProp(t, "start-budget"))
}

// probBound returns the maximum tolerated violating runs for a
// probabilistic scheme over a corpus of the given size. The fractions
// are calibrated against the observed behavior of the current
// implementations on the deterministic corpus (seeded from the test
// name), with headroom so the test only fires on a real regression:
//   - para operates at a 1e-9 designed failure probability — any
//     violation at all is a bug;
//   - mint misses rows under interval dilution (its documented
//     weakness, arXiv 2407.16038);
//   - prohit/mrloc use probabilistic insertion queues and lose under
//     thrash pressure routinely.
func probBound(tb testing.TB, scheme string, runs int) int {
	var frac float64
	switch scheme {
	case "para":
		return 0
	case "mint":
		frac = 0.55
	case "prohit", "mrloc":
		frac = 0.80
	default:
		tb.Fatalf("probBound: %s is not probabilistic", scheme)
	}
	return int(frac * float64(runs))
}
