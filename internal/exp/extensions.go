package exp

import (
	"fmt"
	"strings"

	"repro/internal/dram"
	"repro/internal/mitigate"
	"repro/internal/rh"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/track"
)

// ExtensionRandomized reproduces footnote 4's claim: the randomized
// (cipher-indexed, per-window rekeyed) GCT/RCT mapping performs within
// ~0.1% of the static mapping.
func ExtensionRandomized(o Options) (*PerfReport, error) {
	o = o.withDefaults()
	return perfReport(o, "Extension: static vs randomized GCT indexing (normalized performance)",
		[]Variant{
			{Name: "hydra-static", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra }},
			{Name: "hydra-random", Mutate: func(c *sim.Config) {
				c.Tracker = sim.TrackHydra
				c.HydraRandomize = true
			}},
		})
}

// DDR5Report compares Hydra's overheads on DDR4 and DDR5 geometries.
type DDR5Report struct {
	Rows []DDR5Row
}

// DDR5Row is one workload's DDR4-vs-DDR5 comparison.
type DDR5Row struct {
	Workload     string
	DDR4Slowdown float64 // percent
	DDR5Slowdown float64
	SRAMBytes    int // identical on both: Hydra is per-controller
}

// Format renders the report.
func (r *DDR5Report) Format() string {
	var b strings.Builder
	b.WriteString("Extension: Hydra on DDR5 (32 banks/rank) vs DDR4 (16 banks/rank)\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %12s\n", "workload", "DDR4 slowdown", "DDR5 slowdown", "SRAM")
	var d4, d5 []float64
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %13.2f%% %13.2f%% %12d\n",
			row.Workload, row.DDR4Slowdown, row.DDR5Slowdown, row.SRAMBytes)
		d4 = append(d4, row.DDR4Slowdown)
		d5 = append(d5, row.DDR5Slowdown)
	}
	fmt.Fprintf(&b, "%-12s %13.2f%% %13.2f%%  (SRAM unchanged: per-controller design)\n",
		"AVERAGE", stats.Mean(d4), stats.Mean(d5))
	return b.String()
}

// ExtensionDDR5 runs baseline and Hydra on both geometries and reports
// the slowdowns side by side: per-bank trackers would double their
// SRAM on DDR5 (Table 5), Hydra does not.
func ExtensionDDR5(o Options) (*DDR5Report, error) {
	o = o.withDefaults()
	profiles, err := o.profiles()
	if err != nil {
		return nil, err
	}
	variants := []Variant{
		{Name: "ddr4-base", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackNone }},
		{Name: "ddr4-hydra", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra }},
		{Name: "ddr5-base", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackNone; c.Mem = dram.DDR5() }},
		{Name: "ddr5-hydra", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra; c.Mem = dram.DDR5() }},
	}
	res, cells, _, err := runMatrix(o, profiles, variants)
	if err != nil {
		return nil, err
	}
	rep := &DDR5Report{}
	for _, p := range profiles {
		slow := func(base, tracked string) (float64, error) {
			b, err := lookup(res, cells, base, p.Name)
			if err != nil {
				return 0, err
			}
			t, err := lookup(res, cells, tracked, p.Name)
			if err != nil {
				return 0, err
			}
			return stats.SlowdownPct(float64(b.Cycles) / float64(t.Cycles)), nil
		}
		d4, err := slow("ddr4-base", "ddr4-hydra")
		if err != nil {
			return nil, err
		}
		d5, err := slow("ddr5-base", "ddr5-hydra")
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, DDR5Row{
			Workload:     p.Name,
			DDR4Slowdown: d4,
			DDR5Slowdown: d5,
			SRAMBytes:    res["ddr4-hydra"][p.Name].SRAMBytes,
		})
	}
	return rep, nil
}

// ExtensionRowSwap compares the two mitigation policies' activation
// overheads functionally: victim refresh performs 4 activations per
// mitigation, row swap 2 migrations (but durable relocation). The
// full-system policies share the tracker, so the comparison runs at
// the tracking level over the paper's aggressor counts.
type RowSwapReport struct {
	TRH              int
	Hammers          int
	RefreshMitig     int64
	RefreshExtraActs int64
	SwapMitig        int64
	SwapExtraActs    int64
}

// Format renders the report.
func (r *RowSwapReport) Format() string {
	var b strings.Builder
	b.WriteString("Extension: victim refresh vs randomized row-swap (Section 8 future work)\n")
	fmt.Fprintf(&b, "aggressor hammers: %d at T_RH=%d\n", r.Hammers, r.TRH)
	fmt.Fprintf(&b, "%-16s %12s %18s\n", "policy", "mitigations", "extra activations")
	fmt.Fprintf(&b, "%-16s %12d %18d\n", "victim-refresh", r.RefreshMitig, r.RefreshExtraActs)
	fmt.Fprintf(&b, "%-16s %12d %18d\n", "row-swap", r.SwapMitig, r.SwapExtraActs)
	return b.String()
}

// ExtensionRowSwap runs both mitigation policies against the same
// hammering pattern on identically configured Hydra trackers.
func ExtensionRowSwap(o Options) (*RowSwapReport, error) {
	o = o.withDefaults()
	const hammers = 200000
	mem := dram.Baseline()

	mk := func() (rh.Tracker, error) {
		return ArenaFuncTracker("hydra", track.BaselineGeometry(), o.TRH, o.seed())
	}

	t1, err := mk()
	if err != nil {
		return nil, err
	}
	ref := mitigate.NewRefresher(t1, mitigate.DefaultBlast, mem.RowsPerBank)
	aggressor := rh.Row(100000)
	var refreshActs int64
	for i := 0; i < hammers; i++ {
		refreshActs += int64(len(ref.Activate(aggressor)))
	}

	t2, err := mk()
	if err != nil {
		return nil, err
	}
	sw := mitigate.NewSwapper(t2, mem.RowsPerBank, o.seed())
	for i := 0; i < hammers; i++ {
		sw.Activate(aggressor)
	}

	return &RowSwapReport{
		TRH:              o.TRH,
		Hammers:          hammers,
		RefreshMitig:     ref.Mitigations,
		RefreshExtraActs: refreshActs,
		SwapMitig:        sw.Swaps,
		SwapExtraActs:    sw.MigrationActs,
	}, nil
}

// PolicyReport compares the mitigation policies in full system.
type PolicyReport struct {
	Rows []PolicyRow
}

// PolicyRow is one workload's slowdown under each policy.
type PolicyRow struct {
	Workload    string
	RefreshPct  float64
	RowSwapPct  float64
	ThrottlePct float64
}

// Format renders the report.
func (r *PolicyReport) Format() string {
	var b strings.Builder
	b.WriteString("Extension: mitigation policies in full system (slowdown vs non-secure)\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %14s\n", "workload", "victim-refresh", "row-swap", "throttle")
	var rf, rs, th []float64
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %13.2f%% %13.2f%% %13.2f%%\n",
			row.Workload, row.RefreshPct, row.RowSwapPct, row.ThrottlePct)
		rf = append(rf, row.RefreshPct)
		rs = append(rs, row.RowSwapPct)
		th = append(th, row.ThrottlePct)
	}
	fmt.Fprintf(&b, "%-12s %13.2f%% %13.2f%% %13.2f%%\n", "AVERAGE",
		stats.Mean(rf), stats.Mean(rs), stats.Mean(th))
	b.WriteString("(throttle reproduces footnote 6: delay-based mitigation is a DoS\n")
	b.WriteString(" for workloads with hot rows at ultra-low thresholds)\n")
	return b.String()
}

// ExtensionPolicies runs Hydra under all three mitigation policies.
func ExtensionPolicies(o Options) (*PolicyReport, error) {
	o = o.withDefaults()
	profiles, err := o.profiles()
	if err != nil {
		return nil, err
	}
	variants := []Variant{
		{Name: "base", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackNone }},
		{Name: "refresh", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra }},
		{Name: "rowswap", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra; c.Mitigation = sim.MitigateRowSwap }},
		{Name: "throttle", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra; c.Mitigation = sim.MitigateThrottle }},
	}
	res, cells, _, err := runMatrix(o, profiles, variants)
	if err != nil {
		return nil, err
	}
	rep := &PolicyReport{}
	for _, p := range profiles {
		base, err := lookup(res, cells, "base", p.Name)
		if err != nil {
			return nil, err
		}
		slow := func(v string) (float64, error) {
			r, err := lookup(res, cells, v, p.Name)
			if err != nil {
				return 0, err
			}
			return stats.SlowdownPct(float64(base.Cycles) / float64(r.Cycles)), nil
		}
		row := PolicyRow{Workload: p.Name}
		if row.RefreshPct, err = slow("refresh"); err != nil {
			return nil, err
		}
		if row.RowSwapPct, err = slow("rowswap"); err != nil {
			return nil, err
		}
		if row.ThrottlePct, err = slow("throttle"); err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}
