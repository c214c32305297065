package track

import (
	"fmt"

	"repro/internal/rh"
)

// START is a functional model of Scalable Tracking for Any Rowhammer
// Threshold (Saxena and Qureshi, arXiv 2308.14889). Where Graphene
// provisions a dedicated per-bank CAM for the worst case, START keeps
// one *pooled* Misra-Gries table for the whole memory controller and
// carves its storage out of the last-level cache on demand — most
// workloads touch a tiny fraction of the worst-case entry count, so
// the borrowed LLC capacity is usually negligible, and the same design
// point re-sizes to any threshold by changing the pool bound alone
// (the "configurable" half of the name).
//
// The model keeps the security-relevant structure exact and abstracts
// the LLC plumbing: a single frequent-row table with a spillover floor
// (the per-bank Graphene algorithm, pooled globally) whose capacity
// defaults to the guarantee sizing ceil(Banks*ACTMax / (T_RH/2)).
// Activations of any bank share the one pool; an entry is (row tag,
// count, floor-at-insertion) exactly as in Graphene, so the estimate
// never undercounts and a mitigation is issued at or before every
// operating-threshold true activations. What is *not* modeled is the
// performance side effect of the borrowed ways (demand lines evicted
// from the LLC); SRAMBytes reports the borrowed bytes so the Tables
// 1/5 machinery can still price the scheme.
//
// Config knob: llcBytes bounds the borrowed pool. Zero selects the
// guarantee sizing; a smaller explicit budget models START's
// configurability and trades the deterministic guarantee for capacity
// (the arena's eviction-storm adversary punishes under-provisioned
// pools, which the tests demonstrate).
type START struct {
	geom      Geometry
	threshold int // mitigation threshold (T_RH/2)
	capacity  int // pooled entries
	pool      grapheneBank

	// Mitigations counts mitigations issued over the tracker lifetime.
	Mitigations int64
	// Evictions counts pool entries displaced by misses over the
	// tracker lifetime. Unlike the spillover floor, which lives in the
	// pool and is wiped by ResetWindow, this survives window resets:
	// nonzero means an explicit LLC budget was exceeded at some point,
	// i.e. any lost tracking is the documented capacity trade-off
	// rather than a logic bug. (The property suite's pressure gate
	// keys off this; a budget-less START never evicts.)
	Evictions int64
	// SpilloverPeak is the highest spillover floor reached over the
	// tracker lifetime, across window resets.
	SpilloverPeak int
}

// StartEntryBytes is the LLC cost of one pooled entry: a row tag plus
// count packed into 8 bytes (the model's calibration; the paper stores
// entries at cache-line granularity and reports ~2% LLC in the common
// case).
const StartEntryBytes = 8

var _ rh.Tracker = (*START)(nil)

// NewSTART creates a START tracker for the target T_RH. llcBytes
// bounds the LLC capacity borrowed for tracking entries; zero selects
// the guarantee sizing ceil(Banks*ACTMax / (T_RH/2)) entries.
func NewSTART(geom Geometry, trh, llcBytes int) (*START, error) {
	if geom.Rows <= 0 || geom.RowsPerBank <= 0 || geom.ACTMax <= 0 || geom.Banks <= 0 {
		return nil, fmt.Errorf("track: invalid geometry %+v", geom)
	}
	if trh <= 1 {
		return nil, fmt.Errorf("track: TRH must exceed 1, got %d", trh)
	}
	if llcBytes < 0 {
		return nil, fmt.Errorf("track: negative LLC budget %d", llcBytes)
	}
	t := mitigationThreshold(trh)
	capacity := (geom.Banks*geom.ACTMax + t - 1) / t
	if llcBytes > 0 {
		capacity = llcBytes / StartEntryBytes
		if capacity < 1 {
			return nil, fmt.Errorf("track: LLC budget %d B holds no entries", llcBytes)
		}
	}
	return &START{
		geom:      geom,
		threshold: t,
		capacity:  capacity,
		pool:      newGrapheneBank(capacity),
	}, nil
}

// Name implements rh.Tracker.
func (s *START) Name() string { return "start" }

// Capacity returns the pooled entry count.
func (s *START) Capacity() int { return s.capacity }

// Threshold returns the operating (mitigation) threshold, T_RH/2.
func (s *START) Threshold() int { return s.threshold }

// Activate implements rh.Tracker. The body is the Graphene update on
// the shared pool: hit increments, miss inserts, a full pool replaces
// a row stranded at the spillover floor or raises the floor.
func (s *START) Activate(row rh.Row) bool {
	mitigate, replaced := s.pool.update(row, s.threshold)
	if replaced {
		s.Evictions++
	}
	if s.pool.spillover > s.SpilloverPeak {
		s.SpilloverPeak = s.pool.spillover
	}
	if mitigate {
		s.Mitigations++
	}
	return mitigate
}

// ResetWindow implements rh.Tracker.
func (s *START) ResetWindow() {
	s.pool.reset()
}

// SRAMBytes implements rh.Tracker: the LLC bytes borrowed for the
// pool at 8 bytes per entry. START dedicates no SRAM of its own; the
// Tables 1/5 machinery still prices the borrowed capacity, since LLC
// ways given to tracking are LLC ways taken from demand data.
func (s *START) SRAMBytes() int {
	return s.capacity * StartEntryBytes
}

// Spillover returns the pool's current spillover floor (for tests).
// It is wiped by ResetWindow along with the pool; use SpilloverPeak or
// Evictions for lifetime capacity-pressure evidence.
func (s *START) Spillover() int { return s.pool.spillover }

// EstimatedCount returns the pool's estimate for a row: its entry
// count when resident, the spillover floor otherwise. The estimate
// never undercounts the true count.
func (s *START) EstimatedCount(row rh.Row) int {
	return s.pool.estimate(row)
}
