package track

import (
	"fmt"

	"repro/internal/rh"
	"repro/internal/rngstream"
)

// DCBF is a functional model of the dual counting-Bloom-filter tracker
// of BlockHammer (Yağlıkçı et al., HPCA 2021; paper Section 2.4). Two
// time-interleaved counting Bloom filters with three hash functions
// each track activation counts per bank:
//
//   - every activation increments the row's three counters in both
//     filters;
//   - the filters are cleared alternately every half window, so the
//     older ("active") filter always covers at least the last half
//     window of history;
//   - a row is blacklisted while its estimate (the minimum of its
//     three counters in the active filter) is at or above the
//     threshold.
//
// A counting Bloom filter never undercounts, so there are no false
// negatives; hash collisions cause false positives. As the paper
// observes (Section 7.1), a blacklisted row stays blacklisted until a
// filter reset, so D-CBF can only pair with delay-based mitigation:
// Activate returns true on *every* activation of a blacklisted row,
// which the caller interprets as a throttle event.
type DCBF struct {
	geom      Geometry
	threshold int
	m         int // counters per filter per bank
	hashSeeds [3]uint64
	banks     []dcbfBank
	halfEach  int // activations per bank between filter swaps

	// Throttles counts blacklisted activations over the tracker lifetime.
	Throttles int64
}

type dcbfBank struct {
	filters   [2][]uint16
	older     int // index of the filter that has run longer (queried)
	actsSince int
}

var _ rh.Tracker = (*DCBF)(nil)

// NewDCBF creates a D-CBF tracker. countersPerBank <= 0 selects the
// calibrated sizing 32*ACTMax/T_RH counters per filter per bank. T_RH/2
// must fit the filters' saturating 16-bit counters.
func NewDCBF(geom Geometry, trh, countersPerBank int, seed uint64) (*DCBF, error) {
	if geom.Rows <= 0 || geom.ACTMax <= 0 || geom.Banks <= 0 {
		return nil, fmt.Errorf("track: invalid geometry %+v", geom)
	}
	if trh <= 1 {
		return nil, fmt.Errorf("track: TRH must exceed 1, got %d", trh)
	}
	threshold, err := counterThreshold("D-CBF", trh)
	if err != nil {
		return nil, err
	}
	if countersPerBank <= 0 {
		countersPerBank = 32 * geom.ACTMax / trh
	}
	rng := rngstream.SplitMix64{State: seed}
	d := &DCBF{
		geom:      geom,
		threshold: threshold,
		m:         countersPerBank,
		banks:     make([]dcbfBank, geom.Banks),
		halfEach:  geom.ACTMax / 2,
	}
	for i := range d.hashSeeds {
		d.hashSeeds[i] = rng.Next() | 1
	}
	for i := range d.banks {
		d.banks[i] = dcbfBank{
			filters: [2][]uint16{make([]uint16, countersPerBank), make([]uint16, countersPerBank)},
		}
	}
	return d, nil
}

// Name implements rh.Tracker.
func (d *DCBF) Name() string { return "dcbf" }

// Threshold returns the blacklist threshold (T_RH/2).
func (d *DCBF) Threshold() int { return d.threshold }

func (d *DCBF) hash(row rh.Row, i int) int {
	x := uint64(row)*d.hashSeeds[i] + d.hashSeeds[i]>>17
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return int(x % uint64(d.m))
}

// Activate implements rh.Tracker. A true return is a throttle event,
// not a victim refresh: delay-based mitigation is the only policy
// D-CBF supports.
func (d *DCBF) Activate(row rh.Row) bool {
	b := &d.banks[d.geom.bank(row)]
	b.actsSince++
	if b.actsSince >= d.halfEach {
		// Swap: clear the older filter; the other becomes the queried one.
		clearCounters(b.filters[b.older])
		b.older = 1 - b.older
		b.actsSince = 0
	}
	est := int(^uint(0) >> 1)
	for i := 0; i < 3; i++ {
		h := d.hash(row, i)
		for f := 0; f < 2; f++ {
			if b.filters[f][h] < ^uint16(0) {
				b.filters[f][h]++
			}
		}
		if v := int(b.filters[b.older][h]); v < est {
			est = v
		}
	}
	if est >= d.threshold {
		d.Throttles++
		return true
	}
	return false
}

func clearCounters(c []uint16) {
	for i := range c {
		c[i] = 0
	}
}

// Estimate returns the queried-filter estimate for a row (for tests).
func (d *DCBF) Estimate(row rh.Row) int {
	b := &d.banks[d.geom.bank(row)]
	est := int(^uint(0) >> 1)
	for i := 0; i < 3; i++ {
		if v := int(b.filters[b.older][d.hash(row, i)]); v < est {
			est = v
		}
	}
	return est
}

// ActivateMeta implements rh.Tracker; D-CBF has no DRAM metadata.
func (d *DCBF) ActivateMeta(int) bool { return false }

// MetaRows implements rh.Tracker.
func (d *DCBF) MetaRows() int { return 0 }

// ResetWindow implements rh.Tracker.
func (d *DCBF) ResetWindow() {
	for i := range d.banks {
		clearCounters(d.banks[i].filters[0])
		clearCounters(d.banks[i].filters[1])
		d.banks[i].older = 0
		d.banks[i].actsSince = 0
	}
}

// SRAMBytes implements rh.Tracker: two filters of m 8-bit counters per
// bank, the Table 1 calibration (768 KB per rank at T_RH = 500).
func (d *DCBF) SRAMBytes() int {
	return 2 * d.m * d.geom.Banks
}
