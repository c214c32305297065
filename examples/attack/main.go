// Attack demo: throw the paper's adaptive attack patterns
// (Section 5.2) at Hydra and at a deliberately weakened tracker, with
// the security oracle checking the threat model — no row may reach
// T_RH activations within a refresh period without a mitigation.
//
// The weakened comparison is an undersized TWiCE table, reproducing
// the TRRespass observation (Section 2.4) that thrashable trackers
// lose the aggressor.
package main

import (
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/rh"
	"repro/internal/track"
)

func main() {
	const trh = 500
	geom := track.BaselineGeometry()
	cfg := attack.Config{
		TRH:         trh,
		RowsPerBank: geom.RowsPerBank,
		ActsPerWin:  1_360_000, // one full bank's worth of activations
		Windows:     2,         // spans a tracker reset (straddle attack included)
	}
	victim := rh.Row(50000)

	patterns := []attack.Pattern{
		&attack.SingleSided{Target: victim},
		&attack.DoubleSided{Victim: victim},
		&attack.ManySided{Base: victim, Sides: 19, Spacing: 3},
		&attack.HalfDouble{Victim: victim},
		&attack.Thrash{
			Target:     victim,
			Distractor: func(i int) rh.Row { return rh.Row(10000 + i) },
			Spread:     80000,
			HammerEach: 4,
		},
	}

	fmt.Println("=== Hydra under attack (oracle checks T_RH =", trh, ") ===")
	for _, p := range patterns {
		hcfg := core.ForThreshold(trh)
		hcfg.Rows = geom.Rows
		tracker := core.MustNew(hcfg, rh.NullSink{})
		res := attack.Run(tracker, p, cfg)
		fmt.Println(res)
		if !res.Safe() {
			fmt.Println("  !! Hydra violated the bound; this is a bug")
		}
	}

	fmt.Println("\n=== Undersized TWiCE under the thrash pattern ===")
	weak, err := track.NewTWiCE(geom, trh, 128) // far below the safe sizing
	if err != nil {
		log.Fatal(err)
	}
	res := attack.Run(weak, &attack.Thrash{
		Target:     victim,
		Distractor: func(i int) rh.Row { return rh.Row(10000 + i) },
		Spread:     80000,
		HammerEach: 4,
	}, cfg)
	fmt.Println(res)
	if res.Safe() {
		fmt.Println("  (unexpected: undersized table survived)")
	} else {
		v := res.Violations[0]
		fmt.Printf("  row %d reached %d unmitigated activations: the table thrashed\n", v.Row, v.Count)
		fmt.Printf("  table overflowed %d times while distractors churned it\n", weak.Overflows)
	}
}
