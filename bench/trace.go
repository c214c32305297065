package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// span is one call the benchmark made into the program (setup, run,
// sweep, cache.open) or one campaign cell's wait or work inside a
// sweep, built from the harness.Bus events. Spans of one cell share
// Cell; times are nanoseconds since the traced pass started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Cell   string `json:"cell"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps the spans of a traced pass in memory. It is used from
// the benchmark's own goroutine only. A nil tracer records nothing and
// adds no labels.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

// labelKey marks every CPU sample taken inside a span; the layer fold
// counts only samples that carry it.
const labelKey = "bench"

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// do runs f as a span under pprof labels, which goroutines f starts
// inherit, and returns the span's ID (0 on a nil tracer).
func (t *tracer) do(name, cell string, parent int, f func()) int {
	if t == nil {
		f()
		return 0
	}
	start := time.Now()
	pprof.Do(context.Background(), pprof.Labels(labelKey, t.workload, "span", name, "cell", cell), func(context.Context) { f() })
	return t.add(name, cell, parent, start, time.Now())
}

// add records a span that has already ended and returns its ID.
func (t *tracer) add(name, cell string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// setSelfTimes sets each span's Self to its duration minus the part of
// its interval that its child spans cover (overlapping children count
// once).
func setSelfTimes(spans []span) {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// layers are the repository's modules a CPU sample is charged to, by
// the package of its leaf frame; "other" takes every package not
// listed, so the shares sum to 100%.
var layers = []string{
	"memsim", "dram", "core", "cache", "sim", "cpu", "workload", "track", "obsv",
	"harness", "exp", "iofault", "runtime", "codec", "io", "other",
}

// layerOf maps a Go package path to its layer.
func layerOf(pkg string) string {
	if name, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		name, _, _ = strings.Cut(name, "/")
		for _, l := range layers {
			if l == name {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "internal/runtime/syscall":
		return "io"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "strconv" || pkg == "reflect" || strings.HasPrefix(pkg, "encoding/") || strings.HasPrefix(pkg, "crypto/"):
		return "codec"
	case pkg == "syscall" || pkg == "os" || pkg == "internal/poll" || strings.HasPrefix(pkg, "internal/syscall/"):
		return "io"
	}
	return "other"
}

// packageOf returns the package path of a symbol name such as
// "repro/internal/memsim.(*channel).pick" or "runtime.mallocgc".
func packageOf(fn string) string {
	// Type arguments of generic instantiations may hold dots and
	// slashes; the package path ends before them.
	fn, _, _ = strings.Cut(fn, "[")
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"seed"`
	Samples  int                    `json:"labelled_samples"`
	Layers   map[string]layerRecord `json:"layers"`
	Spans    []span                 `json:"spans"`
}

type layerRecord struct {
	CPUNs   int64   `json:"cpu_ns"`
	SelfPct float64 `json:"self_pct"`
}

// profileLayers runs f under the CPU profiler and adds the CPU time of
// the samples taken inside spans to cpuNs, by layer. It returns how
// many samples it added.
func profileLayers(cpuNs map[string]int64, f func()) (int, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return 0, err
	}
	f()
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return 0, err
	}
	ns, n := p.fold(labelKey, func(fn string) string { return layerOf(packageOf(fn)) })
	for l, v := range ns {
		cpuNs[l] += v
	}
	return n, nil
}

// perLayer divides each layer's CPU time in the traced units by the
// exact work counts of the cells those units simulated, writes the
// spans and the layer table to path, and returns the per-layer metrics.
func perLayer(plain, traced []unitResult, tr *tracer, cpuNs map[string]int64, samples int, seed uint64, path string) (map[string]metric, error) {
	var w work
	var cells int64
	var mallocs, gcs uint64
	var cache struct{ hits, lookups, bytes int64 }
	var waits []float64
	var busy, wall time.Duration
	for _, u := range traced {
		w.plus(u.work)
		cells += int64(u.cells)
		mallocs += u.mem.mallocs
		gcs += u.mem.gcs
		cache.hits += u.cache.Hits
		cache.lookups += u.cache.Hits + u.cache.Misses
		cache.bytes += u.cache.BytesRead + u.cache.BytesWritten
		for _, d := range u.waits {
			waits = append(waits, float64(d)/float64(time.Millisecond))
		}
		busy += u.busy
		wall += u.wall
	}
	perCell := func(n int64) float64 { return stats.Ratio(n, cells) }
	perSim := func(n int64) float64 { return stats.Ratio(n, w.cells) }
	submits := w.requests() + w.readqFull + w.writeqFull
	m := map[string]metric{
		"memsim.ns_per_request":       {stats.Ratio(cpuNs["memsim"], w.requests()), "ns"},
		"memsim.requests_per_cell":    {perSim(w.requests()), "count"},
		"memsim.readq_full_per_cell":  {perSim(w.readqFull), "count"},
		"memsim.epochs_per_cell":      {perSim(w.epochs), "count"},
		"memsim.requests_per_epoch":   {stats.Ratio(w.requests(), w.epochs), "count"},
		"memsim.row_hit_ratio":        {stats.Ratio(w.rowHits, w.reads+w.writes+w.metaLines), "ratio"},
		"memsim.avg_read_latency_cyc": {stats.Ratio(w.readLatSum, w.reads), "cycles"},
		"dram.ns_per_submit":          {stats.Ratio(cpuNs["dram"], submits), "ns"},
		"core.ns_per_act":             {stats.Ratio(cpuNs["core"], w.hydraActs), "ns"},
		"core.gct_filter_ratio":       {stats.Ratio(w.gctOnly, w.hydraActs), "ratio"},
		"core.rcc_hit_ratio":          {stats.Ratio(w.rccHit, w.rccHit+w.rctAccess), "ratio"},
		"core.meta_lines_per_cell":    {perSim(w.metaLines), "count"},
		"sim.ns_per_act":              {stats.Ratio(cpuNs["sim"], w.acts), "ns"},
		"cpu.ns_per_kinst":            {1000 * stats.Ratio(cpuNs["cpu"], w.insts), "ns"},
		"workload.ns_per_request":     {stats.Ratio(cpuNs["workload"], w.reads+w.writes), "ns"},
		"runtime.mallocs_per_cell":    {perCell(int64(mallocs)), "count"},
		"runtime.gc_per_cell":         {perCell(int64(gcs)), "count"},
		"harness.queue_wait_ms_p50":   {stats.Percentile(waits, 50), "ms"},
		"harness.pool_busy_frac":      {stats.Ratio(int64(busy), int64(wall)*int64(runtime.NumCPU())), "ratio"},
		"codec.us_per_cell":           {perCell(cpuNs["codec"]) / 1e3, "us"},
		"cellcache.hit_ratio":         {stats.Ratio(cache.hits, cache.lookups), "ratio"},
		"cellcache.kb_per_cell":       {perCell(cache.bytes) / 1024, "KB"},
		"profile.labelled_samples":    {float64(samples), "count"},
		"trace_overhead_pct":          {100 * (stats.Percentile(cellMS(traced), 50)/stats.Percentile(cellMS(plain), 50) - 1), "%"},
	}

	var total int64
	for _, ns := range cpuNs {
		total += ns
	}
	tf := traceFile{Workload: tr.workload, Seed: seed, Samples: samples, Layers: map[string]layerRecord{}}
	for _, l := range layers {
		pct := 100 * stats.Ratio(cpuNs[l], total)
		m[l+".self_pct"] = metric{pct, "%"}
		tf.Layers[l] = layerRecord{CPUNs: cpuNs[l], SelfPct: pct}
	}
	setSelfTimes(tr.spans)
	tf.Spans = tr.spans
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, fmt.Errorf("writing the trace file: %w", err)
	}
	return m, nil
}
