package track

import (
	"fmt"

	"repro/internal/rh"
	"repro/internal/rngstream"
)

// MINT is a functional model of the Minimalist In-DRAM Tracker
// (Qureshi, Saxena and Jaleel, arXiv 2407.16038): per bank, a single
// interval counter and a single random slot. Time is divided into
// intervals of W activations; at the start of each interval the bank
// draws a uniform slot s in [0, W), and the row whose activation lands
// at position s is the one mitigated for that interval. With W chosen
// so an aggressor must appear in many intervals to reach T_RH, the
// probability it dodges selection in all of them is negligible — the
// paper shows W = T_RH/4 gives a lower attack success probability than
// PARA at equal mitigation rate, with only ~30 bits of state per bank
// instead of Graphene's kilobytes.
//
// The model keeps the security-relevant mechanism exact (one uniform
// slot per fixed-length interval, deterministic given the seed; the
// mitigation is issued at the slot activation itself) and abstracts
// the in-DRAM engineering (RFM-based mitigation slots, sub-array
// parallelism). Unlike the deterministic trackers MINT is
// probabilistic: a single-row hammer is caught with overwhelming
// probability, but an attacker who dilutes each interval with ~W
// distinct rows gives every row only a ~1/W chance per interval and
// can push a victim past T_RH with small-but-real probability — the
// arena's mint-dilute adversary demonstrates exactly this at
// T_RH = 500.
type MINT struct {
	geom     Geometry
	interval int // W, activations per selection interval
	banks    []mintBank
	rng      rngstream.SplitMix64

	// Mitigations counts mitigations issued over the tracker lifetime.
	Mitigations int64
}

type mintBank struct {
	pos  int // position within the current interval
	slot int // selected position in [0, interval)
}

var _ rh.Tracker = (*MINT)(nil)

// NewMINT creates a MINT tracker for the target T_RH. intervalActs is
// W, the number of activations per selection interval; zero selects
// the paper's default W = T_RH/4 (at least 1).
func NewMINT(geom Geometry, trh, intervalActs int, seed uint64) (*MINT, error) {
	if geom.Rows <= 0 || geom.RowsPerBank <= 0 || geom.Banks <= 0 {
		return nil, fmt.Errorf("track: invalid geometry %+v", geom)
	}
	if trh <= 1 {
		return nil, fmt.Errorf("track: TRH must exceed 1, got %d", trh)
	}
	if intervalActs < 0 {
		return nil, fmt.Errorf("track: negative MINT interval %d", intervalActs)
	}
	if intervalActs == 0 {
		intervalActs = trh / 4
		if intervalActs < 1 {
			intervalActs = 1
		}
	}
	m := &MINT{
		geom:     geom,
		interval: intervalActs,
		banks:    make([]mintBank, geom.Banks),
		rng:      rngstream.SplitMix64{State: seed},
	}
	for i := range m.banks {
		m.banks[i].slot = int(m.rng.Next() % uint64(m.interval))
	}
	return m, nil
}

// MustNewMINT is NewMINT for statically valid parameters.
func MustNewMINT(geom Geometry, trh, intervalActs int, seed uint64) *MINT {
	m, err := NewMINT(geom, trh, intervalActs, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements rh.Tracker.
func (m *MINT) Name() string { return "mint" }

// Interval returns W, the activations per selection interval.
func (m *MINT) Interval() int { return m.interval }

// Activate implements rh.Tracker. Each bank counts positions within
// its interval; the activation landing on the pre-drawn slot is the
// interval's mitigation, and the boundary re-draws the slot for the
// next interval.
func (m *MINT) Activate(row rh.Row) bool {
	b := &m.banks[m.geom.bank(row)]
	hit := b.pos == b.slot
	b.pos++
	if b.pos >= m.interval {
		b.pos = 0
		b.slot = int(m.rng.Next() % uint64(m.interval))
	}
	if hit {
		m.Mitigations++
	}
	return hit
}

// ActivateMeta implements rh.Tracker; MINT has no DRAM metadata.
func (m *MINT) ActivateMeta(int) bool { return false }

// MetaRows implements rh.Tracker.
func (m *MINT) MetaRows() int { return 0 }

// ResetWindow implements rh.Tracker. MINT carries no per-window
// state; the interval machinery keeps running across windows.
func (m *MINT) ResetWindow() {}

// SRAMBytes implements rh.Tracker: ~30 bits per bank (interval
// position and slot), rounded to 4 bytes.
func (m *MINT) SRAMBytes() int { return 4 * m.geom.Banks }
