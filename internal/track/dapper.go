package track

import (
	"fmt"

	"repro/internal/rh"
	"repro/internal/rngstream"
)

// DAPPER is a functional model of the performance-attack-resilient
// tracker of arXiv 2501.18857: a per-bank Misra-Gries table, like
// Graphene, but with a per-entry deterministic jitter subtracted from
// the mitigation threshold. A plain deterministic tracker mitigates
// every aggressor at exactly the same count, so an attacker who knows
// the threshold can herd many rows to just below it and release them
// together, forcing a synchronized burst of mitigations — a
// performance attack (denial of service through the mitigation path)
// rather than a security break. DAPPER de-synchronizes the burst: each
// entry mitigates at threshold − j, where j is a hash of the row
// (stable across the entry's lifetime) drawn from [0, threshold/4).
// Mitigating early-only preserves the Misra-Gries security argument —
// no row ever accumulates more unmitigated activations than under
// Graphene — while spreading the mitigation instants of a herd across
// a quarter-threshold band.
//
// The early mitigations cost capacity: sizing uses the effective
// worst-case threshold 3t/4 (t = T_RH/2), so the table is ~4/3 the
// size of Graphene's, the storage premium the arena's Table 5 column
// makes visible.
type DAPPER struct {
	geom      Geometry
	threshold int // mitigation threshold before jitter (T_RH/2)
	jitterMax int // per-entry jitter drawn from [0, jitterMax)
	perBank   int // entries per bank
	banks     []grapheneBank

	// Mitigations counts mitigations issued over the tracker lifetime.
	Mitigations int64
}

var _ rh.Tracker = (*DAPPER)(nil)

// NewDAPPER creates a DAPPER tracker for the target T_RH.
func NewDAPPER(geom Geometry, trh int) (*DAPPER, error) {
	if geom.Rows <= 0 || geom.RowsPerBank <= 0 || geom.ACTMax <= 0 || geom.Banks <= 0 {
		return nil, fmt.Errorf("track: invalid geometry %+v", geom)
	}
	if trh <= 1 {
		return nil, fmt.Errorf("track: TRH must exceed 1, got %d", trh)
	}
	t := mitigationThreshold(trh)
	jitterMax := t / 4
	if jitterMax < 1 {
		jitterMax = 1
	}
	// Worst case a row mitigates every t-jitterMax+1 ≈ 3t/4 estimated
	// activations, so the table must absorb ACTMax at that rate.
	effective := t - jitterMax + 1
	perBank := (geom.ACTMax + effective - 1) / effective
	d := &DAPPER{
		geom:      geom,
		threshold: t,
		jitterMax: jitterMax,
		perBank:   perBank,
		banks:     make([]grapheneBank, geom.Banks),
	}
	for i := range d.banks {
		d.banks[i] = newGrapheneBank(perBank)
	}
	return d, nil
}

// MustNewDAPPER is NewDAPPER for statically valid parameters.
func MustNewDAPPER(geom Geometry, trh int) *DAPPER {
	d, err := NewDAPPER(geom, trh)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements rh.Tracker.
func (d *DAPPER) Name() string { return "dapper" }

// Threshold returns the pre-jitter operating threshold, T_RH/2.
func (d *DAPPER) Threshold() int { return d.threshold }

// EntriesPerBank returns the table size per bank.
func (d *DAPPER) EntriesPerBank() int { return d.perBank }

// jitter derives a row's stable early-mitigation offset in
// [0, jitterMax) from a SplitMix64 hash of the row address. A hash
// (rather than an RNG draw at insertion) keeps the offset stable
// across evictions, so an attacker cannot re-roll it by thrashing.
func (d *DAPPER) jitter(row rh.Row) int {
	return int(rngstream.Mix(uint64(row)) % uint64(d.jitterMax))
}

// Activate implements rh.Tracker: the Graphene update with a
// jittered, early-only mitigation point.
func (d *DAPPER) Activate(row rh.Row) bool {
	mitigate, _ := d.banks[d.geom.bank(row)].update(row, d.threshold-d.jitter(row))
	if mitigate {
		d.Mitigations++
	}
	return mitigate
}

// ActivateMeta implements rh.Tracker; DAPPER has no DRAM metadata.
func (d *DAPPER) ActivateMeta(int) bool { return false }

// MetaRows implements rh.Tracker.
func (d *DAPPER) MetaRows() int { return 0 }

// ResetWindow implements rh.Tracker.
func (d *DAPPER) ResetWindow() {
	for i := range d.banks {
		d.banks[i].reset()
	}
}

// SRAMBytes implements rh.Tracker: 5 bytes per CAM entry — Graphene's
// 4 plus a jitter byte held with the entry so the comparator needs no
// hash unit on the activation path.
func (d *DAPPER) SRAMBytes() int {
	return d.perBank * d.geom.Banks * 5
}

// EstimatedCount returns the tracker's estimate for a row (for tests).
func (d *DAPPER) EstimatedCount(row rh.Row) int {
	return d.banks[d.geom.bank(row)].estimate(row)
}
