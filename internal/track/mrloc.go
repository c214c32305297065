package track

import (
	"fmt"

	"repro/internal/rh"
	"repro/internal/rngstream"
)

// MRLoC is a functional model of the memory-locality-based
// probabilistic mitigation of You and Yang (DAC 2019), the second
// probabilistic design the paper classifies as insecure (Section 7.3).
// A small queue remembers recently activated rows; re-activating a
// queued row (temporal locality, the row-hammer signature) triggers a
// victim refresh with a probability that grows with the row's queue
// hit count, after which the row is dequeued.
//
// The queue is short and insertion is evict-oldest, so an attacker can
// flush the aggressor out of the queue with a burst of one-off rows
// between hammer pairs, escaping mitigation — which the attack suite
// demonstrates.
type MRLoC struct {
	geom  Geometry
	banks []mrlocBank
	rng   rngstream.SplitMix64

	// Mitigations counts mitigations issued over the tracker lifetime.
	Mitigations int64
}

type mrlocEntry struct {
	row  rh.Row
	hits int
}

type mrlocBank struct {
	queue []mrlocEntry // index 0 is the oldest
}

const mrlocQueueEntries = 8

var _ rh.Tracker = (*MRLoC)(nil)

// NewMRLoC creates an MRLoC tracker.
func NewMRLoC(geom Geometry, seed uint64) (*MRLoC, error) {
	if geom.Rows <= 0 || geom.Banks <= 0 {
		return nil, fmt.Errorf("track: invalid geometry %+v", geom)
	}
	return &MRLoC{
		geom:  geom,
		banks: make([]mrlocBank, geom.Banks),
		rng:   rngstream.SplitMix64{State: seed},
	}, nil
}

// Name implements rh.Tracker.
func (m *MRLoC) Name() string { return "mrloc" }

// Activate implements rh.Tracker.
func (m *MRLoC) Activate(row rh.Row) bool {
	b := &m.banks[m.geom.bank(row)]
	for i := range b.queue {
		if b.queue[i].row != row {
			continue
		}
		b.queue[i].hits++
		// Mitigation probability grows with locality: hits/16, capped.
		p := uint64(b.queue[i].hits) << 28 // hits/16 in 2^32 fixed point
		if p > 1<<32-1 {
			p = 1<<32 - 1
		}
		if m.rng.Next()&0xFFFFFFFF < p {
			b.queue = append(b.queue[:i], b.queue[i+1:]...)
			m.Mitigations++
			return true
		}
		return false
	}
	if len(b.queue) >= mrlocQueueEntries {
		b.queue = b.queue[1:] // evict the oldest
	}
	b.queue = append(b.queue, mrlocEntry{row: row})
	return false
}

// ResetWindow implements rh.Tracker.
func (m *MRLoC) ResetWindow() {
	for i := range m.banks {
		m.banks[i] = mrlocBank{}
	}
}

// SRAMBytes implements rh.Tracker: an 8-entry queue per bank at 4
// bytes each.
func (m *MRLoC) SRAMBytes() int {
	return m.geom.Banks * mrlocQueueEntries * 4
}
