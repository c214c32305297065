package track

import (
	"fmt"

	"repro/internal/rh"
)

// OCPR is the naive One-Counter-Per-Row tracker: a dedicated SRAM
// counter for every row in the system (paper Section 2.4). It is
// exact, requires no DRAM traffic, and serves as the storage upper
// bound in Table 1 and as the oracle tracker in tests. The host keeps
// the counters flat, 16 bits each (8 MB at the paper's 4 M rows): a
// counter never exceeds the threshold, and a paged table doubled the
// cost of an activation.
type OCPR struct {
	geom      Geometry
	trh       int
	threshold int
	counts    []uint16

	// Mitigations counts mitigations issued over the tracker lifetime.
	Mitigations int64
}

var _ rh.Tracker = (*OCPR)(nil)

// NewOCPR creates an OCPR tracker operated at T_RH/2, which must fit
// its 16-bit counters.
func NewOCPR(geom Geometry, trh int) (*OCPR, error) {
	if geom.Rows <= 0 {
		return nil, fmt.Errorf("track: invalid geometry %+v", geom)
	}
	if trh <= 1 {
		return nil, fmt.Errorf("track: TRH must exceed 1, got %d", trh)
	}
	threshold, err := counterThreshold("OCPR", trh)
	if err != nil {
		return nil, err
	}
	return &OCPR{
		geom:      geom,
		trh:       trh,
		threshold: threshold,
		counts:    make([]uint16, geom.Rows),
	}, nil
}

// Name implements rh.Tracker.
func (o *OCPR) Name() string { return "ocpr" }

// Activate implements rh.Tracker.
func (o *OCPR) Activate(row rh.Row) bool {
	o.counts[row]++
	if int(o.counts[row]) >= o.threshold {
		o.counts[row] = 0
		o.Mitigations++
		return true
	}
	return false
}

// ResetWindow implements rh.Tracker.
func (o *OCPR) ResetWindow() {
	for i := range o.counts {
		o.counts[i] = 0
	}
}

// SRAMBytes implements rh.Tracker: one log2(T_RH)-bit counter per row,
// the Table 1 sizing (2.3 MB per rank at T_RH = 500).
func (o *OCPR) SRAMBytes() int {
	return o.geom.Rows * bitsFor(o.trh) / 8
}

// Count returns the current counter of a row (for tests).
func (o *OCPR) Count(row rh.Row) int { return int(o.counts[row]) }

// bitsFor returns the bits needed to represent values 0..n.
func bitsFor(n int) int {
	b := 1
	for (1 << b) <= n {
		b++
	}
	return b
}
