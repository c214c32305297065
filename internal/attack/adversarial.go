package attack

// This file holds the adversarial workload family for the tracker
// arena: each adversary targets a specific tracker's weak spot, so the
// arena can report not just "secure on benign workloads" but "secure
// against the pattern built to break this scheme". See docs/TRACKERS.md
// for the catalog of which adversary defeats which scheme.

import (
	"fmt"

	"repro/internal/mitigate"
	"repro/internal/rh"
	"repro/internal/track"
)

// Adversary is one targeted attack recipe. Pattern yields the
// functional-harness stream for attack.Run; Rows yields the finite
// round-robin sequence for sim.AttackSpec (the full-simulator form of
// the same access pattern); Acts is the demand-activation budget that
// makes the attack decisive within one tracking window.
type Adversary struct {
	Key         string
	Description string
	// Targets names the schemes this adversary is built to hurt
	// (security violations or mitigation storms, per Description).
	Targets []string

	Pattern func(geom track.Geometry, trh int) Pattern
	Rows    func(geom track.Geometry, trh int) []uint32
	Acts    func(geom track.Geometry, trh int) int
}

// gctGroupRows returns how many consecutive rows share one Hydra GCT
// counter (the default 32 K-entry GCT; at least 2 so the alias set is
// non-trivial on small test geometries).
func gctGroupRows(geom track.Geometry) int {
	g := (geom.Rows + 32*1024 - 1) / (32 * 1024)
	if g < 2 {
		g = 2
	}
	return g
}

// dilutionWidth is MINT's selection-interval length W = T_RH/4, the
// number of distinct rows that gives each one the minimal per-interval
// selection probability.
func dilutionWidth(trh int) int {
	w := trh / 4
	if w < 2 {
		w = 2
	}
	return w
}

// roundRobin builds the AttackSpec row list for n consecutive rows
// starting at base.
func roundRobin(base, n, spacing int) []uint32 {
	rows := make([]uint32, n)
	for i := range rows {
		rows[i] = uint32(base + i*spacing)
	}
	return rows
}

// stormSpread returns the distractor count for the eviction storm,
// bounded by the bank's row count.
func stormSpread(geom track.Geometry) int {
	spread := 4096
	if spread > geom.RowsPerBank/2 {
		spread = geom.RowsPerBank / 2
	}
	if spread < 8 {
		spread = 8
	}
	return spread
}

// Adversaries returns the arena's adversarial workload family.
func Adversaries() []Adversary {
	return []Adversary{
		{
			Key: "gct-alias",
			Description: "round-robin over one GCT group's consecutive rows: " +
				"the shared group counter saturates while every member stays " +
				"below threshold, flooding Hydra's RCC/RCT path (performance) " +
				"and diluting per-row probabilistic trackers",
			Targets: []string{"hydra", "mint", "para", "prohit", "mrloc"},
			Pattern: func(geom track.Geometry, trh int) Pattern {
				return &ManySided{Base: 8, Sides: gctGroupRows(geom), Spacing: 1}
			},
			Rows: func(geom track.Geometry, trh int) []uint32 {
				return roundRobin(8, gctGroupRows(geom), 1)
			},
			Acts: func(geom track.Geometry, trh int) int {
				return bounded((trh+40)*gctGroupRows(geom), geom)
			},
		},
		{
			Key: "rcc-evict",
			Description: "eviction storm: hammer one target at a rate just below the " +
				"storm-driven spillover growth while sweeping hundreds of recycled " +
				"distractors through the same bank — a capacity-bounded table " +
				"(Hydra's RCC, a budget-sized START pool, ProHIT/MRLoC queues) " +
				"keeps evicting the target, resetting its since-mitigation delta",
			Targets: []string{"start-budget", "prohit", "mrloc", "cra"},
			Pattern: func(geom track.Geometry, trh int) Pattern {
				spread := stormSpread(geom)
				return &Thrash{
					Target:     4,
					Distractor: func(i int) rh.Row { return rh.Row(8 + i%spread) },
					Spread:     spread,
					HammerEach: stormHammerEach,
				}
			},
			Rows: func(geom track.Geometry, trh int) []uint32 {
				spread := stormSpread(geom)
				rows := make([]uint32, 0, spread)
				for i := 0; i < spread; i++ {
					if i%stormHammerEach == 0 {
						rows = append(rows, 4)
						continue
					}
					rows = append(rows, uint32(8+i))
				}
				return rows
			},
			Acts: func(geom track.Geometry, trh int) int {
				return bounded(stormHammerEach*(trh+40), geom)
			},
		},
		{
			Key: "mint-dilute",
			Description: "interval dilution: exactly W = T_RH/4 distinct rows per " +
				"bank, round-robin, so each row dodges MINT's per-interval " +
				"selection with probability 1-1/W and some row survives to T_RH",
			Targets: []string{"mint", "para"},
			Pattern: func(geom track.Geometry, trh int) Pattern {
				return &ManySided{Base: 8, Sides: dilutionWidth(trh), Spacing: 1}
			},
			Rows: func(geom track.Geometry, trh int) []uint32 {
				return roundRobin(8, dilutionWidth(trh), 1)
			},
			Acts: func(geom track.Geometry, trh int) int {
				return bounded((trh+40)*dilutionWidth(trh), geom)
			},
		},
		{
			Key: "mitig-storm",
			Description: "synchronized herd: advance a herd of rows in lockstep so " +
				"deterministic trackers mitigate them all in one burst — a " +
				"performance attack (mitigation-storm DoS) DAPPER's jitter " +
				"de-synchronizes; judged by MitigationBurst and the slowdown " +
				"report, not the oracle",
			Targets: []string{"graphene", "ocpr", "start", "cra"},
			Pattern: func(geom track.Geometry, trh int) Pattern {
				return &ManySided{Base: 8, Sides: stormHerd, Spacing: 1}
			},
			Rows: func(geom track.Geometry, trh int) []uint32 {
				return roundRobin(8, stormHerd, 1)
			},
			Acts: func(geom track.Geometry, trh int) int {
				return bounded(trh*stormHerd, geom)
			},
		},
	}
}

// stormHerd is the mitig-storm herd size: small enough that every
// deterministic tracker tracks all members exactly, large enough that
// a synchronized release is a measurable burst.
const stormHerd = 64

// stormHammerEach is rcc-evict's hammer spacing: one target activation
// per stormHammerEach demand acts, slower than the eviction churn
// raises a thrashed pool's spillover floor (~1 per 37 acts), so the
// target keeps falling to the floor and being evicted.
const stormHammerEach = 64

// bounded clamps an activation budget to one window's worth.
func bounded(acts int, geom track.Geometry) int {
	if geom.ACTMax > 0 && acts > geom.ACTMax {
		return geom.ACTMax
	}
	return acts
}

// AdversaryByKey returns the named adversary.
func AdversaryByKey(key string) (Adversary, error) {
	for _, a := range Adversaries() {
		if a.Key == key {
			return a, nil
		}
	}
	return Adversary{}, fmt.Errorf("attack: unknown adversary %q", key)
}

// MitigationBurst drives a tracker through a pattern and returns the
// peak number of mitigations issued within any bucket of bucketActs
// demand activations, plus the total. It quantifies the
// mitigation-storm performance attack: a synchronized tracker
// concentrates its mitigations into one bucket, a jittered one
// spreads them out.
func MitigationBurst(tr rh.Tracker, pattern Pattern, cfg Config, bucketActs int) (peak int, total int64) {
	if cfg.Blast <= 0 {
		cfg.Blast = mitigate.DefaultBlast
	}
	if bucketActs <= 0 {
		bucketActs = 64
	}
	ref := mitigate.NewRefresher(tr, cfg.Blast, cfg.RowsPerBank)
	last := int64(0)
	inBucket := 0
	for i := 0; i < cfg.ActsPerWin; i++ {
		ref.Activate(pattern.Next())
		if (i+1)%bucketActs == 0 {
			inBucket = int(ref.Mitigations - last)
			if inBucket > peak {
				peak = inBucket
			}
			last = ref.Mitigations
		}
	}
	if tail := int(ref.Mitigations - last); tail > peak {
		peak = tail
	}
	return peak, ref.Mitigations
}
