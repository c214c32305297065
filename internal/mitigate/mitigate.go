// Package mitigate implements the victim-refresh mitigation policy of
// the paper (Section 4.7): when a tracker flags an aggressor row, the
// Blast-Radius nearest rows on each side are refreshed. Refreshing a
// victim row activates it, so those activations are fed back into the
// tracker — the defense against Half-Double-style attacks that exploit
// mitigation-induced activations (Section 5.2.1).
package mitigate

import (
	"fmt"

	"repro/internal/rh"
)

// DefaultBlast is the paper's blast radius: two victim rows refreshed
// on each side of the aggressor, chosen because Half-Double flips bits
// at distance two.
const DefaultBlast = 2

// Victims returns the rows within blast-radius distance of row, clipped
// at bank boundaries: with blast 2 (the paper's default) up to four
// rows, two on each side. It is the one victim-row rule; the simulator,
// the fault model and the Refresher all call it.
func Victims(row rh.Row, blast, rowsPerBank int) []rh.Row {
	inBank := int(row) % rowsPerBank
	victims := make([]rh.Row, 0, 2*blast)
	for d := 1; d <= blast; d++ {
		if inBank-d >= 0 {
			victims = append(victims, row-rh.Row(d))
		}
		if inBank+d < rowsPerBank {
			victims = append(victims, row+rh.Row(d))
		}
	}
	return victims
}

// Refresher drives a tracker with the victim-refresh policy. Each
// demand activation may trigger a mitigation; the mitigation's victim
// refreshes are themselves activations and re-enter the tracker, which
// can (rarely) cascade. The cascade is bounded because every mitigation
// resets the aggressor's counter, but a hard cap guards against a
// broken tracker looping forever.
type Refresher struct {
	tracker     rh.Tracker
	blast       int
	rowsPerBank int

	// MetaOf classifies rows that belong to the tracker's own DRAM
	// metadata (e.g. Hydra's RCT): it returns the metadata row index
	// and true for such rows, which go to the tracker's rh.MetaGuard
	// instead of Activate. Nil means no metadata rows.
	MetaOf func(rh.Row) (int, bool)

	// Observer, when non-nil, sees every activation (demand and
	// victim-refresh) and every mitigation in order; the attack
	// suite's security oracle hangs off this hook.
	Observer Observer

	// Stats since construction.
	Mitigations int64 // mitigations issued (aggressors refreshed around)
	VictimActs  int64 // activations caused by victim refreshes
	CascadeMax  int   // deepest feedback chain observed
}

// Observer receives the activation/mitigation event stream from a
// Refresher.
type Observer interface {
	// Activated is called once per row activation, demand or
	// mitigation-induced.
	Activated(row rh.Row)
	// Mitigated is called when the tracker orders a mitigation for
	// row, after the corresponding Activated call.
	Mitigated(row rh.Row)
}

// ErrCascade is reported (via panic, since it indicates a broken
// tracker) when a mitigation chain exceeds the safety cap.
var ErrCascade = fmt.Errorf("mitigate: mitigation cascade exceeded safety cap")

const cascadeCap = 1 << 16

// NewRefresher creates a victim-refresh engine around a tracker.
func NewRefresher(t rh.Tracker, blast, rowsPerBank int) *Refresher {
	if blast <= 0 || rowsPerBank <= 0 {
		panic(fmt.Sprintf("mitigate: blast=%d rowsPerBank=%d must be positive", blast, rowsPerBank))
	}
	return &Refresher{tracker: t, blast: blast, rowsPerBank: rowsPerBank}
}

// Tracker returns the wrapped tracker.
func (r *Refresher) Tracker() rh.Tracker { return r.tracker }

// Activate performs one demand activation of row, runs the mitigation
// feedback chain to completion, and returns every additional activation
// (victim refresh) that was performed, in order.
func (r *Refresher) Activate(row rh.Row) []rh.Row {
	var extra []rh.Row
	queue := []rh.Row{row}
	depth := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		depth++
		if depth > cascadeCap {
			panic(ErrCascade)
		}
		if r.Observer != nil {
			r.Observer.Activated(cur)
		}
		idx, meta := 0, false
		if r.MetaOf != nil {
			idx, meta = r.MetaOf(cur)
		}
		var mitigate bool
		if meta {
			// Only a guarded tracker (Hydra's RIT-ACT) mitigates its
			// own metadata rows.
			guard, ok := r.tracker.(rh.MetaGuard)
			mitigate = ok && guard.ActivateMeta(idx)
		} else {
			mitigate = r.tracker.Activate(cur)
		}
		if !mitigate {
			continue
		}
		r.Mitigations++
		if r.Observer != nil {
			r.Observer.Mitigated(cur)
		}
		for _, v := range Victims(cur, r.blast, r.rowsPerBank) {
			extra = append(extra, v)
			queue = append(queue, v)
			r.VictimActs++
		}
	}
	if depth > r.CascadeMax {
		r.CascadeMax = depth
	}
	return extra
}

// ResetWindow forwards the periodic reset to the tracker.
func (r *Refresher) ResetWindow() { r.tracker.ResetWindow() }
