// Package hydrastat analyzes hydra-run-report/v1 files offline: it
// summarizes a report file (cell verdicts, geomeans, metric highlights,
// histogram quantiles, slowest cells) and diffs two report files at
// figure level (per-scheme geomean deltas, aggregate metric deltas)
// with a configurable tolerance. Its diff answers "did the simulated
// system change behavior"; `hydrastat bench` answers "did the
// simulator get slower" from `go test -bench` numbers. Both gate with
// the one rule in stats.Compare.
//
// cmd/hydrastat is the thin CLI over this package.
package hydrastat

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obsv"
)

// histQuantiles are the interpolated quantile columns Summarize prints
// per histogram metric, matching the obsv.Server Prometheus rendering.
var histQuantiles = []float64{0.5, 0.95, 0.99}

// Summarize renders a human summary of every report in the file: the
// run envelope, the campaign cell verdicts (with the slowest cells
// ranked by wall-clock), per-scheme suite geomeans, the largest
// counters, and every histogram's p50/p95/p99 (obsv.Hist.Quantile).
// top bounds the "slowest cells" and "top counters" lists (<=0 picks
// the default 5).
func Summarize(f *obsv.ReportFile, top int) string {
	if top <= 0 {
		top = 5
	}
	var b strings.Builder
	for i, r := range f.Reports {
		if i > 0 {
			b.WriteString("\n")
		}
		summarizeReport(&b, r, top)
	}
	return b.String()
}

func summarizeReport(b *strings.Builder, r *obsv.Report, top int) {
	fmt.Fprintf(b, "%s/%s  (%s, %s, %.1fs)\n",
		r.Tool, r.Target, r.CreatedAt.Format("2006-01-02 15:04:05"), r.GoVersion, r.ElapsedSec)
	if len(r.Params) > 0 {
		fmt.Fprintf(b, "  params: %s\n", formatParams(r.Params))
	}

	if len(r.Cells) > 0 {
		counts := map[string]int{}
		panicked := 0
		for _, c := range r.Cells {
			counts[c.Status]++
			if c.Panicked {
				panicked++
			}
		}
		fmt.Fprintf(b, "  cells: %d total", len(r.Cells))
		for _, st := range []string{obsv.CellOK, obsv.CellCached, obsv.CellFailed, obsv.CellBaselineMissing} {
			if counts[st] > 0 {
				fmt.Fprintf(b, " · %d %s", counts[st], st)
			}
		}
		if panicked > 0 {
			fmt.Fprintf(b, " · %d panicked", panicked)
		}
		b.WriteString("\n")
		for _, c := range slowestCells(r.Cells, top) {
			rate := ""
			if c.Cycles > 0 && c.ElapsedSec > 0 {
				rate = fmt.Sprintf("  (%.1f Mcyc/s)", float64(c.Cycles)/c.ElapsedSec/1e6)
			}
			fmt.Fprintf(b, "    slow: %-40s %8.2fs%s\n", c.Key, c.ElapsedSec, rate)
		}
	}

	if len(r.Geomeans) > 0 {
		fmt.Fprintf(b, "  geomeans (normalized perf, 1.0 = baseline):\n")
		for _, scheme := range sortedKeys(r.Geomeans) {
			suites := r.Geomeans[scheme]
			fmt.Fprintf(b, "    %-14s", scheme)
			for _, su := range suiteOrder(suites) {
				fmt.Fprintf(b, " %s=%.3f", su, suites[su])
			}
			b.WriteString("\n")
		}
	}

	if len(r.Metrics) > 0 {
		type kv struct {
			name string
			v    float64
		}
		var counters []kv
		var hists []string
		for name, m := range r.Metrics {
			switch m.Type {
			case obsv.TypeCounter:
				counters = append(counters, kv{name, m.Value})
			case obsv.TypeHistogram:
				hists = append(hists, name)
			}
		}
		sort.Slice(counters, func(i, j int) bool {
			if counters[i].v != counters[j].v {
				return counters[i].v > counters[j].v
			}
			return counters[i].name < counters[j].name
		})
		if len(counters) > top {
			counters = counters[:top]
		}
		if len(counters) > 0 {
			fmt.Fprintf(b, "  top counters:\n")
			for _, c := range counters {
				fmt.Fprintf(b, "    %-28s %d\n", c.name, int64(c.v))
			}
		}
		sort.Strings(hists)
		for _, name := range hists {
			h := r.Metrics[name].Hist
			if h == nil || h.N == 0 {
				continue
			}
			fmt.Fprintf(b, "  %-28s n=%d mean=%.1f", name, h.N, h.Mean())
			for _, q := range histQuantiles {
				fmt.Fprintf(b, " p%g=%.1f", q*100, h.Quantile(q))
			}
			fmt.Fprintf(b, " max=%d\n", h.Max)
		}
	}
}

// slowestCells returns the top-n cells by wall-clock, slowest first.
// Cached cells are skipped: replaying a value in microseconds is not a
// scheduling signal.
func slowestCells(cells []obsv.CellStatus, n int) []obsv.CellStatus {
	var ran []obsv.CellStatus
	for _, c := range cells {
		if c.Status == obsv.CellCached || c.ElapsedSec <= 0 {
			continue
		}
		ran = append(ran, c)
	}
	sort.Slice(ran, func(i, j int) bool {
		if ran[i].ElapsedSec != ran[j].ElapsedSec {
			return ran[i].ElapsedSec > ran[j].ElapsedSec
		}
		return ran[i].Key < ran[j].Key
	})
	if len(ran) > n {
		ran = ran[:n]
	}
	return ran
}

func formatParams(params map[string]any) string {
	parts := make([]string, 0, len(params))
	for _, k := range sortedKeys(params) {
		parts = append(parts, fmt.Sprintf("%s=%v", k, params[k]))
	}
	return strings.Join(parts, " ")
}

// suiteOrder sorts suite keys with ALL first (the headline aggregate),
// then alphabetically.
func suiteOrder(suites map[string]float64) []string {
	keys := sortedKeys(suites)
	sort.SliceStable(keys, func(i, j int) bool {
		return keys[i] == "ALL" && keys[j] != "ALL"
	})
	return keys
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
