package track

import (
	"fmt"

	"repro/internal/rh"
)

// TWiCE is a functional model of the time-window-counter tracker of
// Lee et al. (ISCA 2019; paper Section 2.4). Each bank keeps a table of
// (row, activation-count, lifetime) entries. Periodically (every
// pruning interval) the lifetime of every entry grows, and entries
// whose activation count is too small to ever reach the threshold
// within the window are pruned, freeing space.
//
// The model exposes the property the paper leans on: the table must be
// provisioned for the worst case, and at ultra-low thresholds that
// approaches one entry per activatable row. When the table overflows,
// new aggressor rows go untracked; the Overflows counter records these
// security losses so the attack suite can demonstrate them.
type TWiCE struct {
	geom      Geometry
	threshold int
	perBank   int
	pruneEach int // activations between pruning passes (per bank)
	lifeMax   int
	banks     []twiceBank

	// Stats accumulate over the tracker lifetime.
	Mitigations int64
	Overflows   int64 // activations of untrackable rows (table full)
	Pruned      int64
}

type twiceBank struct {
	entries        map[rh.Row]*twiceEntry
	actsSincePrune int
	life           int
}

type twiceEntry struct {
	acts int
	life int // pruning passes survived
}

var _ rh.Tracker = (*TWiCE)(nil)

// NewTWiCE creates a TWiCE tracker. entriesPerBank <= 0 selects the
// calibrated sizing ceil(ACTMax/(T_RH/4)) used for Table 1.
func NewTWiCE(geom Geometry, trh, entriesPerBank int) (*TWiCE, error) {
	if geom.Rows <= 0 || geom.ACTMax <= 0 || geom.Banks <= 0 {
		return nil, fmt.Errorf("track: invalid geometry %+v", geom)
	}
	if trh <= 1 {
		return nil, fmt.Errorf("track: TRH must exceed 1, got %d", trh)
	}
	t := mitigationThreshold(trh)
	if entriesPerBank <= 0 {
		quarter := trh / 4
		if quarter < 1 {
			quarter = 1
		}
		entriesPerBank = (geom.ACTMax + quarter - 1) / quarter
	}
	const lifeMax = 16
	tw := &TWiCE{
		geom:      geom,
		threshold: t,
		perBank:   entriesPerBank,
		pruneEach: geom.ACTMax/lifeMax + 1,
		lifeMax:   lifeMax,
		banks:     make([]twiceBank, geom.Banks),
	}
	for i := range tw.banks {
		tw.banks[i] = twiceBank{entries: make(map[rh.Row]*twiceEntry)}
	}
	return tw, nil
}

// Name implements rh.Tracker.
func (t *TWiCE) Name() string { return "twice" }

// EntriesPerBank returns the table capacity per bank.
func (t *TWiCE) EntriesPerBank() int { return t.perBank }

// Activate implements rh.Tracker.
func (t *TWiCE) Activate(row rh.Row) bool {
	b := &t.banks[t.geom.bank(row)]
	b.actsSincePrune++
	if b.actsSincePrune >= t.pruneEach {
		t.prune(b)
	}
	if e, ok := b.entries[row]; ok {
		e.acts++
		if e.acts >= t.threshold {
			e.acts = 0
			t.Mitigations++
			return true
		}
		return false
	}
	if len(b.entries) >= t.perBank {
		t.Overflows++ // untracked activation: the TRRespass weakness
		return false
	}
	b.entries[row] = &twiceEntry{acts: 1, life: b.life}
	return false
}

// prune ages every entry and drops the ones whose activation rate can
// no longer reach the threshold by the end of the window.
func (t *TWiCE) prune(b *twiceBank) {
	b.actsSincePrune = 0
	b.life++
	for row, e := range b.entries {
		elapsed := b.life - e.life
		if elapsed <= 0 {
			continue
		}
		// An entry needs at least threshold*elapsed/lifeMax
		// activations by now to stay on pace.
		need := t.threshold * elapsed / t.lifeMax
		if e.acts < need {
			delete(b.entries, row)
			t.Pruned++
		}
	}
}

// ResetWindow implements rh.Tracker.
func (t *TWiCE) ResetWindow() {
	for i := range t.banks {
		t.banks[i] = twiceBank{entries: make(map[rh.Row]*twiceEntry)}
	}
}

// SRAMBytes implements rh.Tracker: 13.8 bytes per entry, the Table 1
// calibration (37% CAM; row tag, activation count, lifetime and valid
// state): 2.3 MB per rank at T_RH = 500.
func (t *TWiCE) SRAMBytes() int {
	return t.perBank * t.geom.Banks * 138 / 10
}
