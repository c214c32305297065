package exp

// The tracker arena sweeps every tracking scheme across row-hammer
// thresholds and judges each one three ways: normalized performance on
// the benign workload suite (the cached LPT campaign), security
// verdicts from the functional attack harness under the adversarial
// workload family of internal/attack, and slowdown under those same
// adversaries running through the full timing simulator. The catalog
// of schemes and the adversary built to break each one is
// docs/TRACKERS.md.

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obsv"
	"repro/internal/rh"
	"repro/internal/sim"
	"repro/internal/track"
	"repro/internal/workload"
)

// DefaultArenaThresholds is the arena's T_RH sweep: the paper's
// near-term operating points down to the ultra-low 500.
var DefaultArenaThresholds = []int{4800, 2000, 1000, 500}

// arenaBudgetEntries is the deliberately under-provisioned START pool
// used by the "start-budget" security row: far below the guarantee
// sizing at every swept threshold, so the eviction-storm adversary has
// a capacity boundary to exploit.
const arenaBudgetEntries = 32

// ArenaSimSchemes lists the schemes the full timing simulator supports;
// the arena's performance and adversarial-slowdown matrices cover
// exactly these.
func ArenaSimSchemes() []sim.TrackerKind {
	return []sim.TrackerKind{
		sim.TrackGraphene, sim.TrackCRA, sim.TrackOCPR, sim.TrackPARA,
		sim.TrackHydra, sim.TrackSTART, sim.TrackMINT, sim.TrackDAPPER,
	}
}

// ArenaFuncSchemes lists every scheme the functional security matrix
// covers — the simulator-backed schemes plus the trackers that exist
// only as functional models, and the under-provisioned "start-budget"
// configuration.
func ArenaFuncSchemes() []string {
	return []string{
		"hydra", "graphene", "cra", "ocpr", "para", "twice", "cat",
		"prohit", "mrloc", "start", "start-budget", "mint", "dapper",
	}
}

// arenaSecurityGeometry is the functional matrix's bank geometry: small
// enough that every (scheme x threshold x adversary) run is
// milliseconds, with a one-window activation budget that makes the
// adversaries decisive at the ultra-low thresholds.
func arenaSecurityGeometry() track.Geometry {
	return track.Geometry{Rows: 4096, RowsPerBank: 1024, Banks: 4, ACTMax: 100000}
}

// ArenaFuncTracker builds the named scheme's functional model sized for
// geom at trh, matching the defaults the attacksim command uses.
func ArenaFuncTracker(name string, geom track.Geometry, trh int, seed uint64) (rh.Tracker, error) {
	switch name {
	case "hydra":
		cfg := core.ForThreshold(trh)
		cfg.Rows = geom.Rows
		cfg.Seed = seed
		return core.New(cfg, rh.NullSink{})
	case "graphene":
		return track.NewGraphene(geom, trh)
	case "cra":
		return track.NewCRA(geom, trh, 64*1024, rh.NullSink{})
	case "ocpr":
		return track.NewOCPR(geom, trh)
	case "para":
		return track.NewPARA(trh, 1e-9, seed)
	case "twice":
		return track.NewTWiCE(geom, trh, 0)
	case "cat":
		return track.NewCAT(geom, trh, 0)
	case "prohit":
		return track.NewProHIT(geom, 1.0/16, seed)
	case "mrloc":
		return track.NewMRLoC(geom, seed)
	case "start":
		return track.NewSTART(geom, trh, 0)
	case "start-budget":
		return track.NewSTART(geom, trh, arenaBudgetEntries*track.StartEntryBytes)
	case "mint":
		return track.NewMINT(geom, trh, 0, seed)
	case "dapper":
		return track.NewDAPPER(geom, trh)
	default:
		return nil, fmt.Errorf("exp: unknown arena scheme %q", name)
	}
}

// ArenaSecurityRow is one (scheme, threshold, adversary) verdict from
// the functional harness.
type ArenaSecurityRow struct {
	Scheme    string `json:"scheme"`
	TRH       int    `json:"trh"`
	Adversary string `json:"adversary"`
	// Safe reports that the oracle saw no row reach T_RH true
	// activations without a mitigation.
	Safe bool `json:"safe"`
	// Expected reports that this adversary names this scheme as a
	// target: a break here demonstrates the designed weakness, a break
	// elsewhere is a finding.
	Expected    bool  `json:"expected"`
	Violations  int   `json:"violations"`
	MaxUnmitig  int   `json:"max_unmitigated"`
	Mitigations int64 `json:"mitigations"`
	// PeakBurst is the largest number of mitigations issued within one
	// herd-sized bucket of activations — the mitigation-storm DoS
	// measure. Recorded for the mitig-storm adversary only.
	PeakBurst int `json:"peak_burst,omitempty"`
}

// ArenaReport is the arena's combined result.
type ArenaReport struct {
	Thresholds  []int    `json:"thresholds"`
	Schemes     []string `json:"schemes"`      // timing-simulator schemes
	FuncSchemes []string `json:"func_schemes"` // security-matrix schemes
	Adversaries []string `json:"adversaries"`

	// Perf is the benign-suite sweep with one variant per scheme@trh,
	// all normalized against one shared non-secure baseline.
	Perf *PerfReport `json:"-"`

	Security []ArenaSecurityRow `json:"security"`

	// AdvTRH and AdvWorkload identify the adversarial-slowdown setup:
	// the lowest swept threshold and the representative victim
	// workload. Slowdown[scheme][adversary] is performance normalized
	// to a non-secure baseline running the same attack (1.0 = the
	// mitigations cost nothing).
	AdvTRH      int                           `json:"adv_trh"`
	AdvWorkload string                        `json:"adv_workload"`
	Slowdown    map[string]map[string]float64 `json:"slowdown"`

	// Cells aggregates every campaign cell verdict (benign sweep plus
	// adversarial-slowdown cells); Cache is the result-cache traffic of
	// both campaigns.
	Cells []obsv.CellStatus  `json:"cells"`
	Cache harness.CacheStats `json:"cache"`
}

// arenaVariant names a perf-matrix variant.
func arenaVariant(kind sim.TrackerKind, trh int) string {
	return fmt.Sprintf("%s@%d", kind, trh)
}

// SecurityRow returns the named verdict, if present.
func (r *ArenaReport) SecurityRow(scheme string, trh int, adversary string) (ArenaSecurityRow, bool) {
	for _, row := range r.Security {
		if row.Scheme == scheme && row.TRH == trh && row.Adversary == adversary {
			return row, true
		}
	}
	return ArenaSecurityRow{}, false
}

// Geomean returns the scheme's ALL-suite geomean at the given
// threshold from the benign perf matrix (0 when every cell failed).
func (r *ArenaReport) Geomean(kind sim.TrackerKind, trh int) float64 {
	return r.Perf.SuiteGeomeans(arenaVariant(kind, trh))["ALL"]
}

// Arena runs the tracker arena: every scheme x threshold on the benign
// workload suite (cached campaign cells shared with the figure
// targets), the functional security matrix under the adversarial
// family, and the adversarial slowdown matrix at the lowest threshold.
// An empty thresholds slice selects DefaultArenaThresholds.
func Arena(o Options, thresholds []int) (*ArenaReport, error) {
	o = o.withDefaults()
	if o.Target == "" {
		o.Target = "arena"
	}
	if len(thresholds) == 0 {
		thresholds = append([]int(nil), DefaultArenaThresholds...)
	}
	for _, trh := range thresholds {
		if trh < 2 {
			return nil, fmt.Errorf("exp: arena threshold %d out of range (need >= 2)", trh)
		}
	}
	schemes := ArenaSimSchemes()
	advs := attack.Adversaries()

	// Benign performance: one variant per scheme@trh, one shared
	// baseline. The variant mutates TRH itself so the cached baseline
	// cells (Tracker=none, whose dynamics ignore TRH) serve every
	// threshold.
	var variants []Variant
	for _, kind := range schemes {
		for _, trh := range thresholds {
			kind, trh := kind, trh
			variants = append(variants, Variant{
				Name: arenaVariant(kind, trh),
				Mutate: func(c *sim.Config) {
					c.Tracker = kind
					c.TRH = trh
				},
			})
		}
	}
	cacheBefore := o.Cache.Stats()
	perf, err := perfReport(o, "Tracker arena: normalized performance (scheme @ T_RH)", variants)
	if err != nil {
		return nil, err
	}

	rep := &ArenaReport{
		Thresholds:  append([]int(nil), thresholds...),
		FuncSchemes: ArenaFuncSchemes(),
		Perf:        perf,
		Slowdown:    map[string]map[string]float64{},
	}
	for _, kind := range schemes {
		rep.Schemes = append(rep.Schemes, string(kind))
	}
	for _, a := range advs {
		rep.Adversaries = append(rep.Adversaries, a.Key)
	}

	// Security matrix: functional harness, one window, every scheme
	// against every adversary at every threshold. Probabilistic
	// trackers get a seed mixed per cell so the matrix is reproducible
	// under o.Seed without replaying one stream everywhere.
	geom := arenaSecurityGeometry()
	for ti, trh := range thresholds {
		for si, name := range rep.FuncSchemes {
			for ai, adv := range advs {
				seed := o.seed() + uint64(ti*997+si*131+ai)*0x9e3779b9
				tr, err := ArenaFuncTracker(name, geom, trh, seed)
				if err != nil {
					return nil, err
				}
				cfg := attack.Config{
					TRH:         trh,
					RowsPerBank: geom.RowsPerBank,
					ActsPerWin:  adv.Acts(geom, trh),
					Windows:     1,
				}
				res := attack.Run(tr, adv.Pattern(geom, trh), cfg)
				row := ArenaSecurityRow{
					Scheme:      name,
					TRH:         trh,
					Adversary:   adv.Key,
					Safe:        res.Safe(),
					Expected:    targeted(adv, name),
					Violations:  len(res.Violations),
					MaxUnmitig:  res.MaxUnmitig,
					Mitigations: res.Mitigations,
				}
				if adv.Key == "mitig-storm" {
					// Burst shape needs a fresh tracker: Run consumed
					// (and window-reset) the first one.
					fresh, err := ArenaFuncTracker(name, geom, trh, seed)
					if err != nil {
						return nil, err
					}
					row.PeakBurst, _ = attack.MitigationBurst(fresh, adv.Pattern(geom, trh), cfg, 64)
				}
				rep.Security = append(rep.Security, row)
			}
		}
	}

	// Adversarial slowdown: every adversary through the full timing
	// simulator at the lowest swept threshold, against one
	// representative workload, normalized to a non-secure baseline
	// running the same attack. Cells are ordinary cacheable campaign
	// cells (AttackSpec is part of the content-addressed key).
	advTRH := thresholds[0]
	for _, trh := range thresholds {
		if trh < advTRH {
			advTRH = trh
		}
	}
	wlName := "xz"
	if len(o.Workloads) > 0 {
		wlName = o.Workloads[0]
	}
	prof, err := workload.ByName(wlName)
	if err != nil {
		return nil, err
	}
	oAdv := o
	oAdv.TRH = advTRH
	oAdv.Workloads = []string{wlName}
	realGeom := track.BaselineGeometry()
	var advVariants []Variant
	for _, adv := range advs {
		adv := adv
		spec := &sim.AttackSpec{
			Rows: adv.Rows(realGeom, advTRH),
			Acts: adv.Acts(realGeom, advTRH),
		}
		advVariants = append(advVariants, Variant{
			Name: adv.Key + "/baseline",
			Mutate: func(c *sim.Config) {
				c.Tracker = sim.TrackNone
				c.Attack = spec
			},
		})
		for _, kind := range schemes {
			kind := kind
			advVariants = append(advVariants, Variant{
				Name: adv.Key + "/" + string(kind),
				Mutate: func(c *sim.Config) {
					c.Tracker = kind
					c.Attack = spec
				},
			})
		}
	}
	advRes, advCells, _, err := runMatrix(oAdv, []workload.Profile{prof}, advVariants)
	if err != nil {
		return nil, err
	}
	rep.AdvTRH = advTRH
	rep.AdvWorkload = wlName
	for _, kind := range schemes {
		rep.Slowdown[string(kind)] = map[string]float64{}
	}
	for _, adv := range advs {
		base, okb := advRes[adv.Key+"/baseline"][wlName]
		if !okb || base.Cycles <= 0 {
			continue
		}
		for _, kind := range schemes {
			got, okg := advRes[adv.Key+"/"+string(kind)][wlName]
			if !okg || got.Cycles <= 0 {
				continue
			}
			rep.Slowdown[string(kind)][adv.Key] = float64(base.Cycles) / float64(got.Cycles)
		}
	}

	rep.Cells = append(append([]obsv.CellStatus(nil), perf.Cells...), advCells...)
	rep.Cache = o.Cache.Stats().Delta(cacheBefore)
	return rep, nil
}

// targeted reports whether the adversary names the scheme.
func targeted(a attack.Adversary, scheme string) bool {
	for _, t := range a.Targets {
		if t == scheme {
			return true
		}
	}
	return false
}

// Format renders the arena: the geomean performance matrix, one
// security block per threshold, and the adversarial slowdown matrix.
func (r *ArenaReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tracker arena: %d schemes x T_RH %v x %d workloads\n\n",
		len(r.Schemes), r.Thresholds, len(r.Perf.Profiles))

	b.WriteString("Normalized performance, benign suite (geomean ALL; 1.0 = non-secure baseline)\n")
	fmt.Fprintf(&b, "%-12s", "scheme")
	for _, trh := range r.Thresholds {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("@%d", trh))
	}
	b.WriteString("\n")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, "%-12s", s)
		for _, trh := range r.Thresholds {
			if v := r.Geomean(sim.TrackerKind(s), trh); v > 0 {
				fmt.Fprintf(&b, " %10.3f", v)
			} else {
				fmt.Fprintf(&b, " %10s", "-")
			}
		}
		b.WriteString("\n")
	}

	b.WriteString("\nSecurity verdicts, functional harness (one window; * = adversary targets the scheme)\n")
	for _, trh := range r.Thresholds {
		fmt.Fprintf(&b, "T_RH=%d\n", trh)
		fmt.Fprintf(&b, "  %-14s", "scheme")
		for _, a := range r.Adversaries {
			fmt.Fprintf(&b, " %16s", a)
		}
		b.WriteString("\n")
		for _, s := range r.FuncSchemes {
			fmt.Fprintf(&b, "  %-14s", s)
			for _, a := range r.Adversaries {
				row, ok := r.SecurityRow(s, trh, a)
				if !ok {
					fmt.Fprintf(&b, " %16s", "-")
					continue
				}
				cell := "safe"
				if !row.Safe {
					cell = fmt.Sprintf("BROKEN(%d)", row.Violations)
				}
				if row.Adversary == "mitig-storm" && row.PeakBurst > 0 {
					cell += fmt.Sprintf(" p%d", row.PeakBurst)
				}
				if row.Expected {
					cell += "*"
				}
				fmt.Fprintf(&b, " %16s", cell)
			}
			b.WriteString("\n")
		}
	}

	fmt.Fprintf(&b, "\nAdversarial slowdown on %s @ T_RH=%d (normalized perf vs attacked baseline)\n",
		r.AdvWorkload, r.AdvTRH)
	fmt.Fprintf(&b, "%-12s", "scheme")
	for _, a := range r.Adversaries {
		fmt.Fprintf(&b, " %16s", a)
	}
	b.WriteString("\n")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, "%-12s", s)
		for _, a := range r.Adversaries {
			if v, ok := r.Slowdown[s][a]; ok {
				fmt.Fprintf(&b, " %16.3f", v)
			} else {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteString("\n")
	}

	if failed := FailedCells(r.Cells); len(failed) > 0 {
		fmt.Fprintf(&b, "FAILED CELLS (%d):\n", len(failed))
		for _, c := range failed {
			fmt.Fprintf(&b, "  %s: %s\n", c.Key, c.Error)
		}
	}
	return b.String()
}

// runReport implements reportable: the perf geomeans ride in the
// standard Geomeans section (keyed scheme@trh), the security and
// slowdown matrices in Extra.
func (r *ArenaReport) runReport(out *obsv.Report) {
	out.Schemes = append([]string(nil), r.Perf.Schemes...)
	out.Cells = append([]obsv.CellStatus(nil), r.Cells...)
	out.Geomeans = map[string]map[string]float64{}
	for _, s := range r.Perf.Schemes {
		out.Geomeans[s] = r.Perf.SuiteGeomeans(s)
	}
	out.Extra = struct {
		Thresholds  []int                         `json:"thresholds"`
		Security    []ArenaSecurityRow            `json:"security"`
		AdvTRH      int                           `json:"adv_trh"`
		AdvWorkload string                        `json:"adv_workload"`
		Slowdown    map[string]map[string]float64 `json:"slowdown"`
	}{r.Thresholds, r.Security, r.AdvTRH, r.AdvWorkload, r.Slowdown}
}
