// Package hydra is the public API of this repository: a from-scratch
// reproduction of "Hydra: Enabling Low-Overhead Mitigation of
// Row-Hammer at Ultra-Low Thresholds via Hybrid Tracking" (Qureshi,
// Rohan, Saileshwar, Nair — ISCA 2022).
//
// The package re-exports the Hydra hybrid tracker (Group-Count Table +
// Row-Count Cache + DRAM-resident Row-Count Table + RIT-ACT guards)
// together with the victim-refresh mitigation policy, so a memory-
// controller model can be protected in a few lines:
//
//	tracker := hydra.MustNew(hydra.DefaultConfig(), hydra.NullSink{})
//	refresher := hydra.NewRefresher(tracker, hydra.DefaultBlast, rowsPerBank)
//	for _, row := range activations {
//	    victims := refresher.Activate(row) // rows refreshed as mitigation
//	    ...
//	}
//
// The heavier machinery — the DDR4 memory-system simulator, the 36
// calibrated workloads, the baseline trackers (Graphene, CRA, OCPR,
// PARA, TWiCE, CAT, ProHIT, MRLoC, START, MINT, DAPPER), the attack
// suite and the per-figure experiment harness — lives in the internal
// packages and is driven by the binaries under cmd/ and the examples
// under examples/.
package hydra

import (
	"repro/internal/core"
	"repro/internal/mitigate"
	"repro/internal/rh"
)

// Row is a global DRAM row identifier.
type Row = rh.Row

// MemSink receives the tracker's DRAM metadata traffic (RCT line
// reads and writes); see rh.MemSink.
type MemSink = rh.MemSink

// NullSink discards metadata traffic (functional use only).
type NullSink = rh.NullSink

// CountingSink tallies metadata traffic.
type CountingSink = rh.CountingSink

// Config parameterizes the Hydra tracker; see core.Config.
type Config = core.Config

// Tracker is the Hydra hybrid tracker; see core.Tracker.
type Tracker = core.Tracker

// Stats is the tracker's access-distribution counters (Figure 6).
type Stats = core.Stats

// StorageBreakdown itemizes Hydra's SRAM cost (Table 4).
type StorageBreakdown = core.StorageBreakdown

// Refresher drives a tracker with the victim-refresh policy,
// feeding mitigation-induced activations back into tracking.
type Refresher = mitigate.Refresher

// DefaultBlast is the paper's blast radius (2 rows on each side).
const DefaultBlast = mitigate.DefaultBlast

// DefaultConfig returns the paper's default Hydra for the 32 GB
// baseline at T_RH = 500 (T_H = 250, T_G = 200, 32 K-entry GCT,
// 8 K-entry RCC).
func DefaultConfig() Config { return core.Default() }

// ConfigForThreshold scales the default configuration to another
// row-hammer threshold, doubling structures as the threshold halves
// (Section 6.3).
func ConfigForThreshold(trh int) Config { return core.ForThreshold(trh) }

// New creates a Hydra tracker; metadata traffic is reported to sink.
func New(cfg Config, sink MemSink) (*Tracker, error) { return core.New(cfg, sink) }

// MustNew is New for configurations known statically valid.
func MustNew(cfg Config, sink MemSink) *Tracker { return core.MustNew(cfg, sink) }

// NewRefresher wraps a tracker with the victim-refresh mitigation
// policy for a memory of the given rows-per-bank.
func NewRefresher(t *Tracker, blast, rowsPerBank int) *Refresher {
	return mitigate.NewRefresher(t, blast, rowsPerBank)
}

// Victims returns the blast-radius neighbours of an aggressor row.
func Victims(row Row, blast, rowsPerBank int) []Row {
	return mitigate.Victims(row, blast, rowsPerBank)
}
