package hydrastat

import (
	"strings"
	"testing"

	"repro/internal/obsv"
)

// report builds a minimal fig5-shaped report for tests.
func report(target string, hydraAll float64) *obsv.Report {
	r := obsv.NewReport("experiments", target)
	r.ElapsedSec = 2.5
	r.Params = map[string]any{"scale": 16.0, "trh": 500}
	r.Schemes = []string{"hydra", "graphene"}
	r.Geomeans = map[string]map[string]float64{
		"hydra":    {"ALL": hydraAll, "SPEC": hydraAll + 0.01},
		"graphene": {"ALL": 0.995},
	}
	h := obsv.NewHist(8, 64)
	for v := int64(1); v <= 100; v++ {
		h.Observe(v % 70)
	}
	r.Metrics = obsv.Metrics{
		"memsim.reads":       {Type: obsv.TypeCounter, Value: 1000},
		"memsim.activates":   {Type: obsv.TypeCounter, Value: 400},
		"sim.ipc":            {Type: obsv.TypeGauge, Value: 9.5},
		"memsim.readq_depth": {Type: obsv.TypeHistogram, Value: float64(h.N), Hist: &h},
	}
	r.Cells = []obsv.CellStatus{
		{Key: target + "/hydra/parest", Status: obsv.CellOK, ElapsedSec: 1.25, Cycles: 3_200_000},
		{Key: target + "/hydra/GUPS", Status: obsv.CellOK, ElapsedSec: 0.5, Cycles: 1_000_000},
		{Key: target + "/graphene/parest", Status: obsv.CellCached},
		{Key: target + "/graphene/GUPS", Status: obsv.CellFailed, Error: "boom", ElapsedSec: 0.2},
	}
	return r
}

func TestSummarize(t *testing.T) {
	f := obsv.NewReportFile(report("fig5", 0.97))
	out := Summarize(f, 3)
	for _, want := range []string{
		"experiments/fig5",
		"cells: 4 total",
		"2 ok", "1 cached", "1 failed",
		"fig5/hydra/parest", // slowest cell
		"Mcyc/s",
		"geomeans",
		"ALL=0.970",
		"memsim.reads",
		"memsim.readq_depth",
		"p50=", "p95=", "p99=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// The slowest-cells ranking must skip the cached replay.
	if strings.Contains(out, "slow: fig5/graphene/parest") {
		t.Errorf("cached cell ranked as slow:\n%s", out)
	}
}

// TestSummarizeReadsReportsWithAttempts pins that run reports written
// while the harness still retried cells and ran a stall watchdog, whose
// cells carry "attempts" and "stalled" fields, decode and summarize.
func TestSummarizeReadsReportsWithAttempts(t *testing.T) {
	data := []byte(`{"schema":"hydra-report-file/v1","reports":[{"schema":"hydra-run-report/v1",` +
		`"tool":"experiments","target":"fig5","created_at":"2026-01-02T03:04:05Z","go_version":"go1.22",` +
		`"cells":[{"key":"fig5/hydra/parest","status":"ok","attempts":1,"elapsed_sec":1.5,"cycles":3000000},` +
		`{"key":"fig5/hydra/GUPS","status":"failed","error":"boom","attempts":3,"stalled":true,"elapsed_sec":0.2}]}]}`)
	f, err := obsv.DecodeReportFile(data)
	if err != nil {
		t.Fatal(err)
	}
	out := Summarize(f, 3)
	for _, want := range []string{"cells: 2 total", "1 ok", "1 failed", "slow: fig5/hydra/parest"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestDiffIdenticalReportsNoRegression(t *testing.T) {
	a := obsv.NewReportFile(report("fig5", 0.97))
	b := obsv.NewReportFile(report("fig5", 0.97))
	d := Diff(a, b, 0.01)
	if d.Regressed() {
		t.Fatalf("identical reports regressed: %+v", d.Regressions())
	}
	if len(d.Geomeans) == 0 {
		t.Fatal("no comparable geomeans found")
	}
	if len(d.Metrics) != 0 {
		t.Errorf("identical reports show metric deltas: %+v", d.Metrics)
	}
	if !strings.Contains(d.Format(), "ok") {
		t.Errorf("format missing ok verdicts:\n%s", d.Format())
	}
}

func TestDiffDetectsGeomeanRegression(t *testing.T) {
	a := obsv.NewReportFile(report("fig5", 0.97))
	b := obsv.NewReportFile(report("fig5", 0.90)) // ~7% drop on hydra
	d := Diff(a, b, 0.01)
	regs := d.Regressions()
	if len(regs) == 0 {
		t.Fatal("7% geomean drop not flagged")
	}
	for _, g := range regs {
		if g.Scheme != "hydra" {
			t.Errorf("unexpected regressed scheme %q", g.Scheme)
		}
		if g.Rel >= 0 {
			t.Errorf("regression with non-negative Rel %v", g.Rel)
		}
	}
	// Regressions sort first.
	if !d.Geomeans[0].Regressed {
		t.Errorf("regressions not ranked first: %+v", d.Geomeans[0])
	}
	if !strings.Contains(d.Format(), "REGRESSED") {
		t.Errorf("format missing REGRESSED:\n%s", d.Format())
	}
	// The same drop within tolerance passes.
	if Diff(a, b, 0.10).Regressed() {
		t.Error("drop within a 10% tolerance still regressed")
	}
}

func TestDiffImprovementIsNotRegression(t *testing.T) {
	a := obsv.NewReportFile(report("fig5", 0.90))
	b := obsv.NewReportFile(report("fig5", 0.97))
	if d := Diff(a, b, 0.01); d.Regressed() {
		t.Errorf("improvement flagged as regression: %+v", d.Regressions())
	}
}

func TestDiffDisjointTargets(t *testing.T) {
	a := obsv.NewReportFile(report("fig5", 0.97))
	b := obsv.NewReportFile(report("fig8", 0.97))
	d := Diff(a, b, 0.01)
	if d.Regressed() {
		t.Error("disjoint targets regressed")
	}
	if len(d.OnlyA) != 1 || d.OnlyA[0] != "fig5" {
		t.Errorf("OnlyA = %v", d.OnlyA)
	}
	if len(d.OnlyB) != 1 || d.OnlyB[0] != "fig8" {
		t.Errorf("OnlyB = %v", d.OnlyB)
	}
	out := d.Format()
	if !strings.Contains(out, "only in A: fig5") || !strings.Contains(out, "only in B: fig8") {
		t.Errorf("format missing only-in lines:\n%s", out)
	}
}

func TestDiffMetricDeltas(t *testing.T) {
	a := obsv.NewReportFile(report("fig5", 0.97))
	b := obsv.NewReportFile(report("fig5", 0.97))
	b.Reports[0].Metrics["memsim.reads"] = obsv.Metric{Type: obsv.TypeCounter, Value: 2000}
	d := Diff(a, b, 0.01)
	if d.Regressed() {
		t.Error("metric movement alone must not regress")
	}
	found := false
	for _, m := range d.Metrics {
		if m.Name == "memsim.reads" && m.Rel == 1.0 {
			found = true
		}
	}
	if !found {
		t.Errorf("doubled counter not reported: %+v", d.Metrics)
	}
}
