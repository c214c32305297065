package exp

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure2 reproduces the CRA motivation study: normalized performance
// with metadata caches of 64, 128 and 256 KB.
func Figure2(o Options) (*PerfReport, error) {
	o = o.withDefaults()
	mk := func(kb int) Variant {
		return Variant{
			Name: fmt.Sprintf("cra-%dKB", kb),
			Mutate: func(c *sim.Config) {
				c.Tracker = sim.TrackCRA
				c.CRACacheBytes = kb * 1024
			},
		}
	}
	return perfReport(o, "Figure 2: CRA vs metadata-cache size (normalized performance)",
		[]Variant{mk(64), mk(128), mk(256)})
}

// Figure5 reproduces the headline comparison: Graphene, CRA (64 KB)
// and Hydra, normalized to the non-secure baseline.
func Figure5(o Options) (*PerfReport, error) {
	o = o.withDefaults()
	return perfReport(o, "Figure 5: Graphene / CRA / Hydra (normalized performance)",
		[]Variant{
			{Name: "cra-64KB", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackCRA; c.CRACacheBytes = 64 * 1024 }},
			{Name: "graphene", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackGraphene }},
			{Name: "hydra", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra }},
		})
}

// Figure6Row is one workload's activation-update distribution.
type Figure6Row struct {
	Workload string
	Suite    workload.Suite
	GCTOnly  float64 // fraction satisfied by the GCT (Figure 4a)
	RCCHit   float64 // fraction hit in the RCC (Figure 4b)
	RCT      float64 // fraction needing DRAM (Figure 4c)
}

// Figure6Report aggregates the distribution across workloads.
type Figure6Report struct {
	Rows []Figure6Row
}

// Averages returns the unweighted mean fractions (the paper reports
// 90.7% / 9.0% / 0.3%).
func (r *Figure6Report) Averages() (gct, rcc, rct float64) {
	var g, c, d []float64
	for _, row := range r.Rows {
		g = append(g, row.GCTOnly)
		c = append(c, row.RCCHit)
		d = append(d, row.RCT)
	}
	return stats.Mean(g), stats.Mean(c), stats.Mean(d)
}

// Format renders the report.
func (r *Figure6Report) Format() string {
	var b strings.Builder
	b.WriteString("Figure 6: where activation updates were satisfied (%)\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s\n", "workload", "GCT-only", "RCC-hit", "RCT-DRAM")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %10.1f %10.1f %10.1f\n",
			row.Workload, row.GCTOnly*100, row.RCCHit*100, row.RCT*100)
	}
	g, c, d := r.Averages()
	fmt.Fprintf(&b, "%-12s %10.1f %10.1f %10.1f\n", "AVERAGE", g*100, c*100, d*100)
	return b.String()
}

// Figure6 reproduces the access-distribution study.
func Figure6(o Options) (*Figure6Report, error) {
	o = o.withDefaults()
	profiles, err := o.profiles()
	if err != nil {
		return nil, err
	}
	res, cells, _, err := runMatrix(o, profiles, []Variant{
		{Name: "hydra", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra }},
	})
	if err != nil {
		return nil, err
	}
	rep := &Figure6Report{}
	for _, p := range profiles {
		r, err := lookup(res, cells, "hydra", p.Name)
		if err != nil {
			return nil, err
		}
		if r.Hydra == nil || r.Hydra.Acts == 0 {
			return nil, fmt.Errorf("%s: no hydra stats", p.Name)
		}
		acts := float64(r.Hydra.Acts)
		rep.Rows = append(rep.Rows, Figure6Row{
			Workload: p.Name,
			Suite:    p.Suite,
			GCTOnly:  float64(r.Hydra.GCTOnly) / acts,
			RCCHit:   float64(r.Hydra.RCCHit) / acts,
			RCT:      float64(r.Hydra.RCTAccess) / acts,
		})
	}
	return rep, nil
}

// SweepReport holds suite-level slowdowns for a parameter sweep, the
// format of Figures 7, 9 and 10 (grouped bars per suite + GUPS + ALL).
type SweepReport struct {
	Title  string
	Points []string // sweep parameter labels, in order
	Groups []string // suite groups, in order
	// SlowdownPct[point][group].
	SlowdownPct map[string]map[string]float64
}

// Format renders the report.
func (r *SweepReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "%-14s", "group")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, " %12s", pt)
	}
	b.WriteString("\n")
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "%-14s", g)
		for _, pt := range r.Points {
			fmt.Fprintf(&b, " %11.2f%%", r.SlowdownPct[pt][g])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// sweep runs hydra variants and reduces to suite slowdown geomeans.
func sweep(o Options, title string, points []Variant) (*SweepReport, error) {
	rep, err := perfReport(o, title, points)
	if err != nil {
		return nil, err
	}
	out := &SweepReport{Title: title, SlowdownPct: map[string]map[string]float64{}}
	groups := rep.suiteOrder()
	out.Groups = groups
	for _, v := range points {
		out.Points = append(out.Points, v.Name)
		geo := rep.SuiteGeomeans(v.Name)
		m := map[string]float64{}
		for _, g := range groups {
			m[g] = stats.SlowdownPct(geo[g])
		}
		out.SlowdownPct[v.Name] = m
	}
	return out, nil
}

// Figure7 reproduces the threshold sensitivity: Hydra at T_RH 500,
// 250 and 125, with structures scaled proportionately.
func Figure7(o Options) (*SweepReport, error) {
	o = o.withDefaults()
	mk := func(trh int) Variant {
		return Variant{
			Name: fmt.Sprintf("TRH=%d", trh),
			Mutate: func(c *sim.Config) {
				c.Tracker = sim.TrackHydra
				c.TRH = trh
			},
		}
	}
	return sweep(o, "Figure 7: Hydra slowdown vs row-hammer threshold",
		[]Variant{mk(500), mk(250), mk(125)})
}

// Figure8 reproduces the ablation: Hydra without the GCT, without the
// RCC, and complete.
func Figure8(o Options) (*PerfReport, error) {
	o = o.withDefaults()
	return perfReport(o, "Figure 8: Hydra ablation (normalized performance)",
		[]Variant{
			{Name: "hydra-nogct", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydraNoGCT }},
			{Name: "hydra-norcc", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydraNoRCC }},
			{Name: "hydra", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra }},
		})
}

// Figure9 reproduces the GCT-capacity sensitivity (16K/32K/64K).
func Figure9(o Options) (*SweepReport, error) {
	o = o.withDefaults()
	mk := func(entries int) Variant {
		return Variant{
			Name: fmt.Sprintf("%dK", entries/1024),
			Mutate: func(c *sim.Config) {
				c.Tracker = sim.TrackHydra
				c.HydraGCTEntries = entries
			},
		}
	}
	return sweep(o, "Figure 9: Hydra slowdown vs GCT capacity",
		[]Variant{mk(16 * 1024), mk(32 * 1024), mk(64 * 1024)})
}

// Figure10 reproduces the T_G sensitivity: 50%, 65%, 80% and 95% of
// T_H (125, 162, 200, 237 for T_H = 250).
func Figure10(o Options) (*SweepReport, error) {
	o = o.withDefaults()
	th := o.TRH / 2
	mk := func(pct int) Variant {
		tg := th * pct / 100
		return Variant{
			Name: fmt.Sprintf("%d%%(%d)", pct, tg),
			Mutate: func(c *sim.Config) {
				c.Tracker = sim.TrackHydra
				c.HydraTG = tg
			},
		}
	}
	return sweep(o, "Figure 10: Hydra slowdown vs GCT threshold (T_G)",
		[]Variant{mk(50), mk(65), mk(80), mk(95)})
}
