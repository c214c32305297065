package mitigate

import (
	"fmt"

	"repro/internal/rh"
	"repro/internal/rngstream"
)

// Swapper implements the row-migration mitigation the paper names as
// future work (Section 8, citing Randomized Row-Swap): when the
// tracker flags an aggressor, instead of refreshing its neighbours the
// row's *content* is swapped with a randomly chosen partner row in the
// same bank, breaking the spatial correlation between the aggressor
// and its victims before the blast radius accumulates damage.
//
// The Swapper keeps the logical-to-physical indirection (the Row
// Indirection Table of the RRS design) as a sparse permutation: only
// swapped rows occupy map entries. A swap migrates both rows — each
// migration is a read plus a write of an 8 KB row, modeled as one
// activation of each physical row — and those activations feed back
// into the tracker, exactly like victim-refresh feedback.
type Swapper struct {
	tracker     rh.Tracker
	rowsPerBank int
	rng         rngstream.SplitMix64

	toPhys map[rh.Row]rh.Row // logical -> physical (sparse)
	toLog  map[rh.Row]rh.Row // physical -> logical (sparse)

	depth int // recursion guard for migration-triggered swaps

	// Stats over the Swapper lifetime.
	Swaps         int64
	MigrationActs int64
}

// NewSwapper creates a row-swap mitigator around a tracker.
func NewSwapper(t rh.Tracker, rowsPerBank int, seed uint64) *Swapper {
	if rowsPerBank <= 0 {
		panic(fmt.Sprintf("mitigate: rowsPerBank=%d must be positive", rowsPerBank))
	}
	return &Swapper{
		tracker:     t,
		rowsPerBank: rowsPerBank,
		rng:         rngstream.SplitMix64{State: seed ^ 0x5a5a5a5a5a5a},
		toPhys:      make(map[rh.Row]rh.Row),
		toLog:       make(map[rh.Row]rh.Row),
	}
}

// Physical returns the current physical row of a logical row.
func (s *Swapper) Physical(logical rh.Row) rh.Row {
	if p, ok := s.toPhys[logical]; ok {
		return p
	}
	return logical
}

// logical returns the logical row currently stored in a physical row.
func (s *Swapper) logical(phys rh.Row) rh.Row {
	if l, ok := s.toLog[phys]; ok {
		return l
	}
	return phys
}

// Activate performs one access to a logical row: the underlying
// physical row is activated and tracked; if the tracker flags it, the
// row is swapped with a random same-bank partner. It returns the
// physical row that was activated and whether a swap happened.
func (s *Swapper) Activate(logicalRow rh.Row) (phys rh.Row, swapped bool) {
	phys = s.Physical(logicalRow)
	if !s.tracker.Activate(phys) {
		return phys, false
	}
	s.swap(logicalRow, phys)
	return phys, true
}

// swap relocates the aggressor to a random physical row of the same
// bank, migrating both rows' contents.
func (s *Swapper) swap(logicalRow, phys rh.Row) {
	s.depth++
	defer func() { s.depth-- }()
	if s.depth > 64 {
		panic(ErrCascade)
	}
	bankBase := rh.Row(int(phys) / s.rowsPerBank * s.rowsPerBank)
	partnerPhys := bankBase + rh.Row(s.rng.Next()%uint64(s.rowsPerBank))
	if partnerPhys == phys {
		partnerPhys = bankBase + rh.Row((int(partnerPhys)+1-int(bankBase))%s.rowsPerBank)
	}
	partnerLog := s.logical(partnerPhys)

	s.setMapping(logicalRow, partnerPhys)
	s.setMapping(partnerLog, phys)
	s.Swaps++

	// Migrating each row costs an activation of both physical rows
	// (read one, write the other, then the reverse); feed them back so
	// an attacker cannot weaponize migrations (Section 5.2.1 applies
	// to any mitigative action).
	for _, m := range [...]rh.Row{phys, partnerPhys} {
		s.MigrationActs++
		if s.tracker.Activate(m) {
			// A migration that itself trips the threshold triggers
			// another swap of whatever logical row now lives there.
			s.swap(s.logical(m), m)
		}
	}
}

func (s *Swapper) setMapping(logical, phys rh.Row) {
	// Drop identity entries to keep the tables sparse.
	if logical == phys {
		delete(s.toPhys, logical)
		delete(s.toLog, phys)
		return
	}
	s.toPhys[logical] = phys
	s.toLog[phys] = logical
}

// CheckPermutation verifies the indirection is a bijection (every
// mapped physical row maps back); tests use it as an invariant.
func (s *Swapper) CheckPermutation() error {
	if len(s.toPhys) != len(s.toLog) {
		return fmt.Errorf("mitigate: mapping tables disagree: %d vs %d entries", len(s.toPhys), len(s.toLog))
	}
	for l, p := range s.toPhys {
		if got, ok := s.toLog[p]; !ok || got != l {
			return fmt.Errorf("mitigate: physical %d maps to %d, expected %d", p, got, l)
		}
	}
	return nil
}

// ResetWindow forwards the periodic reset to the tracker. The
// indirection table persists: swaps are durable relocations.
func (s *Swapper) ResetWindow() { s.tracker.ResetWindow() }

// SRAMBytes estimates the indirection-table cost at 8 bytes per
// swapped pair, on top of the tracker's own storage.
func (s *Swapper) SRAMBytes() int {
	return s.tracker.SRAMBytes() + 8*len(s.toPhys)
}
