// Package attack implements the paper's security evaluation
// (Section 5): a suite of row-hammer access patterns (single-sided,
// double-sided, many-sided, Half-Double, TRRespass-style thrashing and
// the counter-row attack on DRAM-resident metadata) plus an Oracle
// that records true per-row activation counts and flags any row that
// accumulates the row-hammer threshold without a mitigation.
//
// The oracle encodes the paper's threat model exactly: a successful
// attack requires activating at least one row T_RH or more times
// within a refresh period without an intervening mitigation. Because
// trackers are operated at T_RH/2 (the reset-straddling allowance,
// Section 4.6), the oracle is *not* reset at window boundaries — an
// attacker who splits activations across a reset must still be caught.
package attack

import (
	"fmt"

	"repro/internal/mitigate"
	"repro/internal/rh"
)

// Violation records a row that reached the threshold unmitigated.
type Violation struct {
	Row   rh.Row
	Count int // true activations since the last mitigation
	Step  int // demand-activation index at which it happened
}

// Oracle tracks true activation counts per row and detects violations.
// It implements mitigate.Observer.
//
// Window semantics: a DRAM row is refreshed once per 64 ms refresh
// period, staggered relative to the tracker's reset, so the hammer
// damage a row can accumulate spans at most two consecutive tracking
// windows (the reasoning behind Theorem 1's T_H = T_RH/2). The oracle
// therefore sums the row's unmitigated activations over the current
// and the previous window. Call WindowReset at each tracker reset.
//
// Ordering: a mitigation issued in response to the very activation
// that reaches the threshold is safe ("at or before" in Theorem 1), so
// a threshold crossing only becomes a violation if the tracker did not
// mitigate the row within the same activation event.
type Oracle struct {
	trh  int
	cur  map[rh.Row]int // unmitigated acts this window
	prev map[rh.Row]int // unmitigated acts last window
	step int

	pending    bool
	pendingRow rh.Row
	pendingCnt int

	Violations []Violation
	TotalActs  int64
	MaxSeen    int // highest unmitigated two-window count observed
}

var _ mitigate.Observer = (*Oracle)(nil)

// NewOracle creates an oracle for the given row-hammer threshold.
func NewOracle(trh int) *Oracle {
	if trh <= 1 {
		panic(fmt.Sprintf("attack: TRH must exceed 1, got %d", trh))
	}
	return &Oracle{trh: trh, cur: make(map[rh.Row]int), prev: make(map[rh.Row]int)}
}

// Step advances the demand-activation index used in violation reports.
func (o *Oracle) Step() { o.step++ }

func (o *Oracle) commitPending() {
	if o.pending {
		o.Violations = append(o.Violations,
			Violation{Row: o.pendingRow, Count: o.pendingCnt, Step: o.step})
		// Clear the row so one broken row does not flood the report.
		delete(o.cur, o.pendingRow)
		delete(o.prev, o.pendingRow)
		o.pending = false
	}
}

// Activated implements mitigate.Observer.
func (o *Oracle) Activated(row rh.Row) {
	o.commitPending()
	o.TotalActs++
	o.cur[row]++
	c := o.cur[row] + o.prev[row]
	if c > o.MaxSeen {
		o.MaxSeen = c
	}
	if c >= o.trh {
		o.pending = true
		o.pendingRow = row
		o.pendingCnt = c
	}
}

// Mitigated implements mitigate.Observer.
func (o *Oracle) Mitigated(row rh.Row) {
	if o.pending && o.pendingRow == row {
		o.pending = false
	}
	delete(o.cur, row)
	delete(o.prev, row)
}

// WindowReset rolls the window: the current counts become the previous
// window's, matching the staggered-refresh threat model.
func (o *Oracle) WindowReset() {
	o.commitPending()
	o.prev = o.cur
	o.cur = make(map[rh.Row]int)
}

// Finish commits any pending violation; call once after the last
// activation.
func (o *Oracle) Finish() { o.commitPending() }

// Safe reports whether no violation was observed.
func (o *Oracle) Safe() bool { return len(o.Violations) == 0 }

// Pattern produces an endless stream of demand-activation targets.
type Pattern interface {
	Name() string
	Next() rh.Row
}

// SingleSided hammers one aggressor row.
type SingleSided struct{ Target rh.Row }

// Name implements Pattern.
func (s *SingleSided) Name() string { return "single-sided" }

// Next implements Pattern.
func (s *SingleSided) Next() rh.Row { return s.Target }

// DoubleSided alternates between the two aggressors sandwiching a
// victim row.
type DoubleSided struct {
	Victim rh.Row
	i      int
}

// Name implements Pattern.
func (d *DoubleSided) Name() string { return "double-sided" }

// Next implements Pattern.
func (d *DoubleSided) Next() rh.Row {
	d.i++
	if d.i%2 == 0 {
		return d.Victim - 1
	}
	return d.Victim + 1
}

// ManySided cycles over n aggressors spaced around a base row, the
// TRR-defeating pattern of TRRespass.
type ManySided struct {
	Base    rh.Row
	Sides   int
	Spacing int
	i       int
}

// Name implements Pattern.
func (m *ManySided) Name() string { return fmt.Sprintf("%d-sided", m.Sides) }

// Next implements Pattern.
func (m *ManySided) Next() rh.Row {
	spacing := m.Spacing
	if spacing == 0 {
		spacing = 2
	}
	r := m.Base + rh.Row((m.i%m.Sides)*spacing)
	m.i++
	return r
}

// HalfDouble hammers the rows at distance two from the victim, relying
// on the mitigations of the distance-one neighbours to hammer the
// victim indirectly (Section 5.2.1 / Section 7.4).
type HalfDouble struct {
	Victim rh.Row
	i      int
}

// Name implements Pattern.
func (h *HalfDouble) Name() string { return "half-double" }

// Next implements Pattern.
func (h *HalfDouble) Next() rh.Row {
	h.i++
	if h.i%2 == 0 {
		return h.Victim - 2
	}
	return h.Victim + 2
}

// Thrash interleaves hammering a target with touches of many
// distractor rows, the pattern that defeats under-provisioned SRAM
// trackers (TRRespass, Section 2.4).
type Thrash struct {
	Target     rh.Row
	Distractor func(i int) rh.Row // i-th distractor row
	Spread     int                // number of distractors
	HammerEach int                // hammer frequency: 1 target act per HammerEach acts
	i          int
}

// Name implements Pattern.
func (t *Thrash) Name() string { return "thrash" }

// Next implements Pattern.
func (t *Thrash) Next() rh.Row {
	t.i++
	each := t.HammerEach
	if each <= 1 {
		each = 2
	}
	if t.i%each == 0 {
		return t.Target
	}
	return t.Distractor(t.i % t.Spread)
}

// Result summarizes one attack run.
type Result struct {
	Pattern     string
	Tracker     string
	DemandActs  int64
	TotalActs   int64
	Mitigations int64
	Violations  []Violation
	MaxUnmitig  int
}

// Safe reports whether the tracker withstood the attack.
func (r Result) Safe() bool { return len(r.Violations) == 0 }

// String renders a one-line summary.
func (r Result) String() string {
	verdict := "SAFE"
	if !r.Safe() {
		verdict = fmt.Sprintf("BROKEN (%d violations)", len(r.Violations))
	}
	return fmt.Sprintf("%-12s vs %-12s acts=%d mitig=%d maxUnmitig=%d %s",
		r.Pattern, r.Tracker, r.TotalActs, r.Mitigations, r.MaxUnmitig, verdict)
}

// Config parameterizes an attack run.
type Config struct {
	TRH         int // the oracle's threshold
	RowsPerBank int
	Blast       int
	ActsPerWin  int // demand activations per tracking window
	Windows     int // number of windows (reset between them)
}

// Run drives a tracker through an attack pattern under the victim-
// refresh policy and reports what the oracle saw.
func Run(tr rh.Tracker, pattern Pattern, cfg Config) Result {
	if cfg.Blast <= 0 {
		cfg.Blast = mitigate.DefaultBlast
	}
	if cfg.Windows <= 0 {
		cfg.Windows = 1
	}
	oracle := NewOracle(cfg.TRH)
	ref := mitigate.NewRefresher(tr, cfg.Blast, cfg.RowsPerBank)
	ref.Observer = oracle
	demand := int64(0)
	for w := 0; w < cfg.Windows; w++ {
		for i := 0; i < cfg.ActsPerWin; i++ {
			oracle.Step()
			ref.Activate(pattern.Next())
			demand++
		}
		ref.ResetWindow()
		oracle.WindowReset()
	}
	oracle.Finish()
	return Result{
		Pattern:     pattern.Name(),
		Tracker:     tr.Name(),
		DemandActs:  demand,
		TotalActs:   oracle.TotalActs,
		Mitigations: ref.Mitigations,
		Violations:  oracle.Violations,
		MaxUnmitig:  oracle.MaxSeen,
	}
}
