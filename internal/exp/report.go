package exp

import (
	"time"

	"repro/internal/obsv"
)

// reportable is implemented by harness reports that can export a
// structured run report (currently PerfReport; table/oracle reports
// ride along in the Extra field).
type reportable interface {
	runReport(rep *obsv.Report)
}

// BuildReport converts one target's harness output into the
// machine-readable run report of internal/obsv. Perf reports export
// per-workload normalized performance, slowdown percentages and
// per-scheme metric snapshots, plus one aggregated metric view
// (counters summed, histograms merged across every simulated run);
// other report shapes are embedded as-is under "extra".
func BuildReport(target string, o Options, rep any, elapsed time.Duration) *obsv.Report {
	o = o.withDefaults()
	out := obsv.NewReport("experiments", target)
	out.ElapsedSec = elapsed.Seconds()
	out.Params = map[string]any{
		"scale":       o.Scale,
		"trh":         o.TRH,
		"seed":        o.seed(),
		"parallelism": o.Parallelism,
	}
	if len(o.Workloads) > 0 {
		out.Params["workloads"] = o.Workloads
	}
	if r, ok := rep.(reportable); ok {
		r.runReport(out)
	} else {
		out.Extra = rep
	}
	return out
}

// runReport implements reportable for the perf-sweep shape.
func (r *PerfReport) runReport(out *obsv.Report) {
	out.Schemes = append([]string(nil), r.Schemes...)
	out.Cells = append([]obsv.CellStatus(nil), r.Cells...)
	out.Geomeans = map[string]map[string]float64{}
	for _, s := range r.Schemes {
		out.Geomeans[s] = r.SuiteGeomeans(s)
	}
	agg := obsv.Metrics{}
	for _, p := range r.Profiles {
		w := obsv.WorkloadReport{
			Name:        p.Name,
			Suite:       string(p.Suite),
			NormPerf:    map[string]float64{},
			SlowdownPct: map[string]float64{},
			Metrics:     map[string]obsv.Metrics{},
		}
		for _, s := range r.Schemes {
			norm, ok := r.Norm[s][p.Name]
			if !ok {
				continue // failed cell; its verdict is in out.Cells
			}
			w.NormPerf[s] = norm
			w.SlowdownPct[s] = (1 - norm) * 100
		}
		// Deterministic merge order: the report must encode identically
		// across runs (the crash-point sweep compares reports bitwise).
		for _, scheme := range sortedKeys(r.Results) {
			if res, ok := r.Results[scheme][p.Name]; ok && res.Metrics != nil {
				w.Metrics[scheme] = res.Metrics
				agg.Merge(res.Metrics)
			}
		}
		if len(w.NormPerf) == 0 {
			// Every scheme lost this workload: there is no row to
			// report; the failures are recorded in out.Cells.
			continue
		}
		out.Workloads = append(out.Workloads, w)
	}
	// Surface the result-cache traffic next to the simulation metrics so
	// a run report shows what was simulated versus replayed. Only when a
	// cache saw traffic — cacheless runs keep their exact metric set.
	if c := r.Cache; c.Hits+c.Misses+c.Stores > 0 {
		counter := func(name string, v int64, unit string) {
			agg[name] = obsv.Metric{Type: obsv.TypeCounter, Value: float64(v), Unit: unit}
		}
		counter("cache.hits", c.Hits, "cells")
		counter("cache.mem_hits", c.MemHits, "cells")
		counter("cache.disk_hits", c.DiskHits, "cells")
		counter("cache.misses", c.Misses, "cells")
		counter("cache.stores", c.Stores, "cells")
		counter("cache.bytes_read", c.BytesRead, "bytes")
		counter("cache.bytes_written", c.BytesWritten, "bytes")
		if c.CorruptDropped > 0 {
			counter("cache.corrupt_dropped", c.CorruptDropped, "entries")
		}
		if c.StoreErrors > 0 {
			counter("cache.store_errors", c.StoreErrors, "entries")
		}
		if c.Quarantined > 0 {
			counter("cache.quarantined", c.Quarantined, "entries")
		}
	}
	out.Metrics = agg
}
