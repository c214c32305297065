// Package track implements the row-hammer trackers Hydra is evaluated
// against (paper Sections 2.4, 2.5 and 7):
//
//   - Graphene: Misra-Gries frequent-row tracking in CAM (the SRAM
//     state of the art, Figure 5);
//   - CRA: one counter per row in DRAM with a line-granularity
//     metadata cache (the DRAM-tracking baseline, Figures 2 and 5);
//   - OCPR: one counter per row in SRAM (the idealized upper bound of
//     Table 1);
//   - PARA: stateless probabilistic mitigation;
//   - TWiCE, CAT, D-CBF: functional models used for storage analysis
//     and attack studies;
//   - ProHIT, MRLoC: probabilistic in-queue trackers the attack suite
//     defeats, reproducing the paper's judgment;
//   - START, MINT, DAPPER: post-Hydra successors (arXiv 2308.14889,
//     2407.16038, 2501.18857) for the tracker arena.
//
// All trackers implement rh.Tracker. Like Hydra, they are operated at
// half the target row-hammer threshold to absorb the periodic-reset
// vulnerability (Section 4.6 / footnote 3). docs/TRACKERS.md is the
// user-facing catalog of every scheme in this package.
package track

import (
	"fmt"
	"math"

	"repro/internal/rh"
)

// Geometry carries the memory-system facts trackers size themselves
// with.
type Geometry struct {
	Rows        int // total rows in the system
	RowsPerBank int
	Banks       int // total banks
	ACTMax      int // maximum activations per bank per refresh window (1.36 M)
}

// BaselineGeometry matches the paper's 32 GB system: 4 M rows over 32
// banks, 1.36 M activations per bank per 64 ms window.
func BaselineGeometry() Geometry {
	return Geometry{
		Rows:        4 * 1024 * 1024,
		RowsPerBank: 131072,
		Banks:       32,
		ACTMax:      1360000,
	}
}

func (g Geometry) bank(row rh.Row) int {
	return int(row) / g.RowsPerBank
}

// mitigationThreshold returns the tracker operating threshold for a
// target T_RH: half, because an attacker can straddle the periodic
// reset (footnote 3).
func mitigationThreshold(trh int) int {
	t := trh / 2
	if t < 1 {
		t = 1
	}
	return t
}

// counterThreshold is mitigationThreshold for a tracker whose counters
// are 16 bits wide. It refuses a threshold past 65535, which such a
// counter would wrap (or, saturating, never reach) before counting to.
func counterThreshold(name string, trh int) (int, error) {
	t := mitigationThreshold(trh)
	if t > math.MaxUint16 {
		return 0, fmt.Errorf("track: %s threshold T_RH/2 = %d overflows its 16-bit counters", name, t)
	}
	return t, nil
}
