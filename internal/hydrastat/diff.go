package hydrastat

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/obsv"
	"repro/internal/stats"
)

// GeomeanDelta is one (target, scheme, suite) geomean comparison.
type GeomeanDelta struct {
	Target, Scheme, Suite string
	A, B                  float64
	// Rel is (B-A)/A; negative means B performs worse (lower
	// normalized performance) than A.
	Rel float64
	// Regressed marks deltas where B dropped below A by more than the
	// diff tolerance (stats.Compare, the rule `hydrastat bench` gates
	// benchmark numbers with).
	Regressed bool
}

// MetricDelta is one aggregate-metric comparison between two runs of
// the same target.
type MetricDelta struct {
	Target, Name string
	Type         obsv.MetricType
	A, B         float64
	Rel          float64 // (B-A)/A, with A==0 handled as ±Inf for B!=0
}

// DiffReport is the outcome of comparing two report files target by
// target. Regressions gate the hydrastat exit code; metric deltas are
// informational (metric movement is often the *explanation* of a
// geomean movement, not itself a failure).
type DiffReport struct {
	Tolerance float64
	// Geomeans holds every comparable (target, scheme, suite) triple,
	// regressions first, then by |Rel| descending.
	Geomeans []GeomeanDelta
	// Metrics holds aggregate-metric deltas whose |Rel| exceeds the
	// tolerance, by |Rel| descending.
	Metrics []MetricDelta
	// OnlyA / OnlyB list targets present in one file only.
	OnlyA, OnlyB []string
}

// Regressed reports whether any geomean dropped beyond the tolerance.
func (d *DiffReport) Regressed() bool {
	for _, g := range d.Geomeans {
		if g.Regressed {
			return true
		}
	}
	return false
}

// Regressions returns only the failing geomean deltas.
func (d *DiffReport) Regressions() []GeomeanDelta {
	var out []GeomeanDelta
	for _, g := range d.Geomeans {
		if g.Regressed {
			out = append(out, g)
		}
	}
	return out
}

// Diff compares two report files target by target: per-scheme,
// per-suite geomean deltas (a drop beyond tol regresses) and aggregate
// metric deltas beyond tol (informational). Reports are matched by
// Target; a target missing from either side is listed, never an error,
// so partial reruns diff cleanly against full baselines.
func Diff(a, b *obsv.ReportFile, tol float64) *DiffReport {
	if tol < 0 {
		tol = 0
	}
	d := &DiffReport{Tolerance: tol}
	byTarget := func(f *obsv.ReportFile) map[string]*obsv.Report {
		m := map[string]*obsv.Report{}
		for _, r := range f.Reports {
			m[r.Target] = r // last one wins; files normally hold one report per target
		}
		return m
	}
	am, bm := byTarget(a), byTarget(b)
	for _, t := range sortedKeys(am) {
		if _, ok := bm[t]; !ok {
			d.OnlyA = append(d.OnlyA, t)
		}
	}
	for _, t := range sortedKeys(bm) {
		if _, ok := am[t]; !ok {
			d.OnlyB = append(d.OnlyB, t)
		}
	}

	for _, target := range sortedKeys(am) {
		ra, rb := am[target], bm[target]
		if rb == nil {
			continue
		}
		d.diffGeomeans(target, ra, rb, tol)
		d.diffMetrics(target, ra, rb, tol)
	}

	sort.SliceStable(d.Geomeans, func(i, j int) bool {
		gi, gj := d.Geomeans[i], d.Geomeans[j]
		if gi.Regressed != gj.Regressed {
			return gi.Regressed
		}
		return math.Abs(gi.Rel) > math.Abs(gj.Rel)
	})
	sort.SliceStable(d.Metrics, func(i, j int) bool {
		return math.Abs(d.Metrics[i].Rel) > math.Abs(d.Metrics[j].Rel)
	})
	return d
}

func (d *DiffReport) diffGeomeans(target string, ra, rb *obsv.Report, tol float64) {
	for _, scheme := range sortedKeys(ra.Geomeans) {
		sb, ok := rb.Geomeans[scheme]
		if !ok {
			continue
		}
		for _, g := range stats.Compare(ra.Geomeans[scheme], sb, tol, stats.HigherIsBetter) {
			if g.New || g.Removed || g.Base <= 0 {
				continue // a 0 geomean means "no surviving workloads", not comparable
			}
			d.Geomeans = append(d.Geomeans, GeomeanDelta{
				Target: target, Scheme: scheme, Suite: g.Name,
				A: g.Base, B: g.Cur, Rel: (g.Cur - g.Base) / g.Base,
				Regressed: g.Worse,
			})
		}
	}
}

func (d *DiffReport) diffMetrics(target string, ra, rb *obsv.Report, tol float64) {
	for _, name := range sortedKeys(ra.Metrics) {
		ma := ra.Metrics[name]
		mb, ok := rb.Metrics[name]
		if !ok || ma.Type == obsv.TypeHistogram || mb.Type != ma.Type {
			continue // histograms are summarized, not diffed line-by-line
		}
		rel := 0.0
		switch {
		case ma.Value == mb.Value:
			continue
		case ma.Value == 0:
			rel = math.Inf(sign(mb.Value))
		default:
			rel = (mb.Value - ma.Value) / math.Abs(ma.Value)
		}
		if math.Abs(rel) <= tol {
			continue
		}
		d.Metrics = append(d.Metrics, MetricDelta{
			Target: target, Name: name, Type: ma.Type,
			A: ma.Value, B: mb.Value, Rel: rel,
		})
	}
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// Format renders the diff for terminals: regressions first (the lines
// that made the exit code non-zero), then the remaining geomean
// movement, then the metric deltas beyond tolerance.
func (d *DiffReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "geomean deltas (tolerance %.1f%%):\n", d.Tolerance*100)
	if len(d.Geomeans) == 0 {
		b.WriteString("  (no comparable geomeans)\n")
	}
	for _, g := range d.Geomeans {
		status := "ok"
		if g.Regressed {
			status = "REGRESSED"
		}
		fmt.Fprintf(&b, "  %-10s %-14s %-6s %.3f -> %.3f (%+.2f%%)  %s\n",
			g.Target, g.Scheme, g.Suite, g.A, g.B, g.Rel*100, status)
	}
	if len(d.Metrics) > 0 {
		fmt.Fprintf(&b, "metric deltas beyond %.1f%% (informational):\n", d.Tolerance*100)
		for _, m := range d.Metrics {
			fmt.Fprintf(&b, "  %-10s %-28s %g -> %g (%+.1f%%)\n",
				m.Target, m.Name, m.A, m.B, m.Rel*100)
		}
	}
	for _, t := range d.OnlyA {
		fmt.Fprintf(&b, "only in A: %s\n", t)
	}
	for _, t := range d.OnlyB {
		fmt.Fprintf(&b, "only in B: %s\n", t)
	}
	return b.String()
}
