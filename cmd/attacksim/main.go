// Command attacksim runs the row-hammer attack suite (Section 5)
// against a chosen tracker — or all of them — and reports, per
// pattern, whether the security oracle observed any row reaching the
// row-hammer threshold without a mitigation.
//
// Usage:
//
//	attacksim -tracker hydra -trh 500 -acts 2000000
//	attacksim -tracker all
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 130
// interrupted.
package main

import (
	"context"
	"flag"
	"fmt"

	"repro/internal/attack"
	"repro/internal/cli"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/obsv"
	"repro/internal/rh"
	"repro/internal/sim"
	"repro/internal/track"
	"repro/internal/workload"
)

func main() { cli.Main("attacksim", run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("attacksim", flag.ContinueOnError)
	trackerName := fs.String("tracker", "all", "hydra|graphene|cra|ocpr|para|twice|cat|prohit|mrloc|start|start-budget|mint|dapper|all")
	trh := fs.Int("trh", 500, "row-hammer threshold")
	acts := fs.Int("acts", 2_000_000, "demand activations per window")
	windows := fs.Int("windows", 2, "tracking windows (reset between)")
	full := fs.Bool("full", false, "run the attack through the full timing simulator (hydra only)")
	listen := fs.String("listen", "", "serve live telemetry (/healthz, pprof) on this address")
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile")
	memProf := fs.String("memprofile", "", "write a pprof heap profile")
	if err := cli.ParseError(fs.Parse(args)); err != nil {
		return err
	}

	stopProfiles, err := obsv.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProfiles()
	stopTelemetry, err := obsv.ListenFlag(*listen, obsv.ServerOptions{})
	if err != nil {
		return err
	}
	defer stopTelemetry() //nolint:errcheck // best-effort shutdown on exit

	if *full {
		if err := runFullSystem(ctx, *trh, *acts); err != nil {
			return err
		}
		return stopProfiles()
	}

	geom := track.BaselineGeometry()
	cfg := attack.Config{
		TRH:         *trh,
		RowsPerBank: geom.RowsPerBank,
		ActsPerWin:  *acts,
		Windows:     *windows,
	}

	target := rh.Row(100000)
	patterns := []func() attack.Pattern{
		func() attack.Pattern { return &attack.SingleSided{Target: target} },
		func() attack.Pattern { return &attack.DoubleSided{Victim: target} },
		func() attack.Pattern { return &attack.ManySided{Base: target, Sides: 19, Spacing: 3} },
		func() attack.Pattern { return &attack.HalfDouble{Victim: target} },
		func() attack.Pattern {
			return &attack.Thrash{
				Target:     target,
				Distractor: func(i int) rh.Row { return target - 60000 + rh.Row(i) },
				Spread:     50000,
				HammerEach: 4,
			}
		},
	}

	names := []string{"hydra", "graphene", "ocpr", "para", "twice", "cat", "prohit", "mrloc", "start", "mint", "dapper"}
	if *trackerName != "all" {
		names = []string{*trackerName}
	}
	broken := false
	for _, name := range names {
		for _, mk := range patterns {
			if err := ctx.Err(); err != nil {
				return err // interrupted between patterns
			}
			tr, err := exp.ArenaFuncTracker(name, geom, *trh, 7)
			if err != nil {
				return cli.Usagef("%v", err)
			}
			res := attack.Run(tr, mk(), cfg)
			fmt.Println(res)
			if !res.Safe() {
				broken = true
			}
		}
	}
	if broken {
		fmt.Println("\nNOTE: violations above are expected for probabilistic or")
		fmt.Println("undersized trackers; Hydra must always report SAFE.")
	}
	return stopProfiles()
}

// runFullSystem drives a double-sided attack through the timing
// simulator with background victim traffic and the oracle attached to
// the controller's real activation stream.
func runFullSystem(ctx context.Context, trh, acts int) error {
	mem := dram.Baseline()
	victim := mem.GlobalRow(dram.Loc{Channel: 0, Bank: 3, Row: 70000})
	oracle := attack.NewOracle(trh)

	p, err := workload.ByName("xz") // background victim workload
	if err != nil {
		return err
	}
	cfg := sim.Default(p)
	cfg.Ctx = ctx
	cfg.Scale = 16
	cfg.TRH = trh
	cfg.KeepStructSize = true
	cfg.Attack = &sim.AttackSpec{Rows: []uint32{victim - 1, victim + 1}, Acts: acts}
	cfg.Observer = oracle

	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	verdict := "SAFE"
	if !oracle.Safe() {
		verdict = fmt.Sprintf("BROKEN (%d violations, first row %d at count %d)",
			len(oracle.Violations), oracle.Violations[0].Row, oracle.Violations[0].Count)
	}
	fmt.Printf("full-system double-sided vs hydra: acts=%d mitig=%d victim-refreshes=%d maxUnmitig=%d %s\n",
		res.Mem.Activates, res.Mitigations, res.Mem.MitigActs, oracle.MaxSeen, verdict)
	return nil
}
