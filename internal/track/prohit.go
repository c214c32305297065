package track

import (
	"fmt"

	"repro/internal/rh"
	"repro/internal/rngstream"
)

// ProHIT is a functional model of the probabilistic hot-row
// identification table of Son et al. (DAC 2017), one of the two
// probabilistic designs the paper classifies as insecure
// (Section 7.3). A small table is split into a "cold" probation queue
// and a "hot" ranked list:
//
//   - a missing row enters the cold queue with probability pInsert,
//     evicting a random cold entry when full;
//   - a cold hit promotes the row toward (and eventually into) the hot
//     list; a hot hit moves it up one rank;
//   - when the top hot entry is hit, its victims are refreshed and it
//     moves to the bottom of the hot list.
//
// Because insertion and survival are probabilistic and the table is
// tiny, a deterministic attacker interleaving enough one-off rows can
// keep the aggressor from ever ranking up — the attack suite
// demonstrates violations, reproducing the paper's judgment.
type ProHIT struct {
	geom    Geometry
	pInsert uint64 // scaled to 2^32
	banks   []prohitBank
	rng     rngstream.SplitMix64

	// Mitigations counts mitigations issued over the tracker lifetime.
	Mitigations int64
}

type prohitBank struct {
	cold []rh.Row // probation FIFO-ish set
	hot  []rh.Row // ranked: index 0 is the top
}

const (
	prohitColdEntries = 4
	prohitHotEntries  = 4
)

var _ rh.Tracker = (*ProHIT)(nil)

// NewProHIT creates a ProHIT tracker. pInsert is the cold-insertion
// probability (the original uses small values like 1/16).
func NewProHIT(geom Geometry, pInsert float64, seed uint64) (*ProHIT, error) {
	if geom.Rows <= 0 || geom.Banks <= 0 {
		return nil, fmt.Errorf("track: invalid geometry %+v", geom)
	}
	if pInsert <= 0 || pInsert > 1 {
		return nil, fmt.Errorf("track: pInsert must be in (0,1], got %v", pInsert)
	}
	return &ProHIT{
		geom:    geom,
		pInsert: uint64(pInsert * float64(1<<32)),
		banks:   make([]prohitBank, geom.Banks),
		rng:     rngstream.SplitMix64{State: seed},
	}, nil
}

// MustNewProHIT is NewProHIT for statically valid parameters.
func MustNewProHIT(geom Geometry, pInsert float64, seed uint64) *ProHIT {
	t, err := NewProHIT(geom, pInsert, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements rh.Tracker.
func (p *ProHIT) Name() string { return "prohit" }

// Activate implements rh.Tracker.
func (p *ProHIT) Activate(row rh.Row) bool {
	b := &p.banks[p.geom.bank(row)]

	// Hot hit: promote one rank; a top hit mitigates and demotes.
	for i, r := range b.hot {
		if r != row {
			continue
		}
		if i == 0 {
			// Top of the hot list: refresh victims, move to bottom.
			copy(b.hot, b.hot[1:])
			b.hot[len(b.hot)-1] = row
			p.Mitigations++
			return true
		}
		b.hot[i], b.hot[i-1] = b.hot[i-1], b.hot[i]
		return false
	}
	// Cold hit: promote into the hot list (its bottom), pushing the
	// bottom hot entry back to cold.
	for i, r := range b.cold {
		if r != row {
			continue
		}
		if len(b.hot) < prohitHotEntries {
			b.hot = append(b.hot, row)
			b.cold = append(b.cold[:i], b.cold[i+1:]...)
			return false
		}
		demoted := b.hot[len(b.hot)-1]
		b.hot[len(b.hot)-1] = row
		b.cold[i] = demoted
		return false
	}
	// Miss: probabilistic insertion into the cold set.
	if p.rng.Next()&0xFFFFFFFF >= p.pInsert {
		return false
	}
	if len(b.cold) < prohitColdEntries {
		b.cold = append(b.cold, row)
		return false
	}
	victim := int(p.rng.Next() % uint64(len(b.cold)))
	b.cold[victim] = row
	return false
}

// ActivateMeta implements rh.Tracker; ProHIT has no DRAM metadata.
func (p *ProHIT) ActivateMeta(int) bool { return false }

// MetaRows implements rh.Tracker.
func (p *ProHIT) MetaRows() int { return 0 }

// ResetWindow implements rh.Tracker.
func (p *ProHIT) ResetWindow() {
	for i := range p.banks {
		p.banks[i] = prohitBank{}
	}
}

// SRAMBytes implements rh.Tracker: 8 tagged entries per bank at 4
// bytes each.
func (p *ProHIT) SRAMBytes() int {
	return p.geom.Banks * (prohitColdEntries + prohitHotEntries) * 4
}
