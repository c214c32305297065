package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ChaosRow is one scenario's verdict: a Hydra-protected system under a
// double-sided attack with the scenario's faults injected, judged by
// the security oracle.
type ChaosRow struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description"`
	// GuaranteeHeld reports that no row reached T_RH unmitigated (the
	// oracle recorded no violation) despite the injected faults.
	GuaranteeHeld bool `json:"guarantee_held"`
	// DegradationDetected reports that the oracle caught the injected
	// faults breaking the guarantee — the failure is visible, not
	// silent. Exactly one of GuaranteeHeld/DegradationDetected is true.
	DegradationDetected bool  `json:"degradation_detected"`
	Violations          int   `json:"violations"`
	MaxUnmitigated      int   `json:"max_unmitigated"`
	Mitigations         int64 `json:"mitigations"`
	// Injected fault counts (from sim.ChaosStats).
	DroppedRefreshes int64 `json:"dropped_refreshes"`
	CorruptedEntries int64 `json:"corrupted_entries"`
	PostponedResets  int64 `json:"postponed_resets"`
}

// ChaosReport is the chaos campaign's result: one row per scenario
// plus the per-cell campaign verdicts.
type ChaosReport struct {
	TRH   int               `json:"trh"`
	Rows  []ChaosRow        `json:"rows"`
	Cells []obsv.CellStatus `json:"cells"`
}

// Format renders the report.
func (r *ChaosReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos campaign: Hydra under fault injection (T_RH=%d)\n", r.TRH)
	fmt.Fprintf(&b, "%-18s %-22s %10s %8s %8s %8s %8s\n",
		"scenario", "verdict", "violations", "maxseen", "dropped", "corrupt", "postpone")
	for _, row := range r.Rows {
		verdict := "guarantee-held"
		if row.DegradationDetected {
			verdict = "degradation-detected"
		}
		fmt.Fprintf(&b, "%-18s %-22s %10d %8d %8d %8d %8d\n",
			row.Scenario, verdict, row.Violations, row.MaxUnmitigated,
			row.DroppedRefreshes, row.CorruptedEntries, row.PostponedResets)
	}
	if failed := FailedCells(r.Cells); len(failed) > 0 {
		fmt.Fprintf(&b, "FAILED CELLS (%d):\n", len(failed))
		for _, c := range failed {
			fmt.Fprintf(&b, "  %s: %s\n", c.Key, c.Error)
		}
	}
	return b.String()
}

// runReport implements reportable: chaos rows ride in Extra, the cell
// verdicts in the report's cell section.
func (r *ChaosReport) runReport(out *obsv.Report) {
	out.Cells = append([]obsv.CellStatus(nil), r.Cells...)
	out.Extra = r.Rows
}

// Row returns the named scenario's row, if present.
func (r *ChaosReport) Row(scenario string) (ChaosRow, bool) {
	for _, row := range r.Rows {
		if row.Scenario == scenario {
			return row, true
		}
	}
	return ChaosRow{}, false
}

// chaosProfile is the fixed victim workload behind the attacker: small
// and hot so every scenario run finishes quickly and deterministically.
func chaosProfile() workload.Profile {
	return workload.Profile{
		Name: "chaos-hot", Suite: workload.SPEC,
		MPKI: 20, UniqueRows: 16000, Hot250: 400, ActsPerRow: 40,
	}
}

// Chaos runs the named fault-injection scenarios (all built-ins when
// names is empty) as a harness campaign: each cell hammers a
// double-sided pattern through a Hydra-protected system with the
// scenario's faults injected and records whether the paper's guarantee
// held or the security oracle detected the degradation. Either way the
// failure mode is visible — a scenario only fails its cell when the
// simulation itself errors.
func Chaos(o Options, names []string) (*ChaosReport, error) {
	o = o.withDefaults()
	if o.Target == "" {
		o.Target = "chaos"
	}

	var scenarios []faults.Scenario
	if len(names) == 0 {
		scenarios = faults.Scenarios()
	} else {
		for _, n := range names {
			s, err := faults.ScenarioByName(n)
			if err != nil {
				return nil, err
			}
			scenarios = append(scenarios, s)
		}
	}

	var cells []harness.Cell
	for _, sc := range scenarios {
		sc := sc
		cells = append(cells, harness.Cell{
			Key: o.target() + "/" + sc.Name + "/" + chaosProfile().Name,
			Run: func(ctx context.Context, env harness.Env) (any, error) {
				mem := dram.Baseline()
				victim := mem.GlobalRow(dram.Loc{Channel: 0, Bank: 3, Row: 5000})
				oracle := attack.NewOracle(o.TRH)

				cfg := sim.Default(chaosProfile())
				// The campaign pins its own scale: the background cores
				// must keep the banks contended for the attacker's
				// alternating rows to conflict (and activate) at the
				// real rate, so o.Scale does not apply here.
				cfg.Scale = 4
				cfg.KeepStructSize = true // full-size tracker vs a real-rate attack
				cfg.TRH = o.TRH
				// Windows short enough that the reset path (and with it
				// refresh-postpone) engages within the run, yet long
				// enough that an unmitigated double-sided attack clears
				// the default T_RH=500 inside two windows — otherwise a
				// genuine guarantee break could go unobserved.
				cfg.WindowCycles = 2_000_000
				cfg.Seed = o.seed()
				cfg.Attack = &sim.AttackSpec{
					Rows: []uint32{victim - 1, victim + 1}, // double-sided
					Acts: 60000,
				}
				cfg.Observer = oracle
				cfg.Ctx = ctx
				cfg.Progress = env.Progress
				if sc.Active() {
					s := sc
					cfg.Chaos = &s
				}
				res, err := sim.Run(cfg)
				if err != nil {
					return nil, err
				}
				row := ChaosRow{
					Scenario:            sc.Name,
					Description:         sc.Description,
					GuaranteeHeld:       oracle.Safe(),
					DegradationDetected: !oracle.Safe(),
					Violations:          len(oracle.Violations),
					MaxUnmitigated:      oracle.MaxSeen,
					Mitigations:         res.Mitigations,
				}
				if res.Chaos != nil {
					row.DroppedRefreshes = res.Chaos.DroppedRefreshes
					row.CorruptedEntries = res.Chaos.CorruptedEntries
					row.PostponedResets = res.Chaos.PostponedResets
				}
				return row, nil
			},
		})
	}

	hres, err := harness.RunCampaign(o.ctx(), cells, harness.Options{
		Workers:     o.Parallelism,
		CellTimeout: o.CellTimeout,
	})
	if err != nil {
		return nil, err
	}
	rep := &ChaosReport{TRH: o.TRH}
	for _, r := range hres {
		st, row, ok := cellStatus[ChaosRow](r)
		if ok {
			rep.Rows = append(rep.Rows, row)
		}
		rep.Cells = append(rep.Cells, st)
	}
	return rep, nil
}
