package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/stats"
)

// golden.json holds the output digest of every workload at seed 1: the
// SHA-256 of the cell's canonical sim.Result JSON for cell workloads,
// of the sweep's PerfReport.Norm table for campaign workloads.
//
//go:embed golden.json
var goldenJSON []byte

// traceBlocks is how many untraced and traced blocks a traced run
// alternates.
const traceBlocks = 5

const mib = 1 << 20

// checker counts attempted and failed cells and holds every unit's
// output to one reference digest: the golden one at the golden seed,
// otherwise the first digest the run produced, so every cell of a run
// must repeat it.
type checker struct {
	ref               string
	attempted, failed int
}

func newChecker(workload string, seed uint64) (*checker, error) {
	var g struct {
		Seed    uint64            `json:"seed"`
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("reading golden.json: %w", err)
	}
	c := &checker{}
	if seed == g.Seed {
		c.ref = g.Digests[workload]
	}
	return c, nil
}

func (c *checker) check(u unitResult) {
	c.attempted += u.cells
	c.failed += u.failed
	if c.ref == "" {
		c.ref = u.digest
	}
	if u.digest != c.ref {
		c.failed++
	}
}

// measure runs one workload: an untimed warm-up unit, then either the
// timed pass (end-to-end metrics) or an untraced reference pass and a
// traced pass under the CPU profiler (per-layer metrics).
func measure(w workloadDef, o options, out io.Writer) (result, error) {
	fmt.Fprintf(out, "# workload %s seed %d trace %v\n%s\n", w.name, o.seed, o.trace, envLine())
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return result{}, err
	}
	scratch, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)
	chk, err := newChecker(w.name, o.seed)
	if err != nil {
		return result{}, err
	}
	r, err := w.open(o.seed, scratch, chk)
	if err != nil {
		return result{}, err
	}
	loop(r, nil, chk, 1, 0) // warm-up: checked, not timed

	var m map[string]metric
	if !o.trace {
		m = endToEnd(loop(r, nil, chk, o.units, seconds(o.seconds)))
	} else {
		// Untraced and traced blocks alternate, a quarter of the time
		// untraced, so drift in the host's speed reaches both sides of
		// trace_overhead_pct alike.
		blocks := traceBlocks
		if o.units > 0 {
			blocks = 1
		}
		tr := newTracer(w.name)
		cpuNs := map[string]int64{}
		var plain, traced []unitResult
		samples := 0
		for b := 0; b < blocks; b++ {
			plain = append(plain, loop(r, nil, chk, o.units, seconds(o.seconds/4/float64(blocks)))...)
			n, err := profileLayers(cpuNs, func() {
				traced = append(traced, loop(r, tr, chk, o.units, seconds(o.seconds*3/4/float64(blocks)))...)
			})
			if err != nil {
				return result{}, err
			}
			samples += n
		}
		path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
		if m, err = perLayer(plain, traced, tr, cpuNs, samples, o.seed, path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "# spans and layer table written to %s\n", path)
	}
	fmt.Fprintf(out, "# digest %s\n", chk.ref)
	return result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    min(chk.failed, chk.attempted),
		Metrics:   m,
	}, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// loop runs measured units: exactly n when n > 0, otherwise as many as
// fit in d, and at least one. Before each unit it collects garbage,
// outside the unit's timing, so every unit starts from the same heap.
func loop(r unitRunner, tr *tracer, chk *checker, n int, d time.Duration) []unitResult {
	var out []unitResult
	start := time.Now()
	for i := 0; ; i++ {
		if n > 0 && i >= n {
			return out
		}
		// Stop when one more unit of the average length would overrun d.
		if el := time.Since(start); n <= 0 && i > 0 && el+el/time.Duration(i) > d {
			return out
		}
		runtime.GC()
		before := readMem()
		u := r.unit(tr, i)
		u.mem = memSince(before)
		chk.check(u)
		out = append(out, u)
	}
}

// memDelta is the allocation a unit caused, from runtime.MemStats.
type memDelta struct {
	bytes, mallocs, gcs uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		bytes:   after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
		gcs:     uint64(after.NumGC - before.NumGC),
	}
}

// endToEnd computes the metrics a user of the simulator sees.
func endToEnd(us []unitResult) map[string]metric {
	var unitS, setup, alloc []float64
	var insts float64
	for _, u := range us {
		unitS = append(unitS, u.wall.Seconds())
		setup = append(setup, u.setup.Seconds())
		alloc = append(alloc, float64(u.mem.bytes)/float64(u.cells)/mib)
		insts += float64(u.insts)
	}
	ms := cellMS(us)
	return map[string]metric{
		"cell_ms_p50":       {stats.Percentile(ms, 50), "ms"},
		"cell_ms_p90":       {stats.Percentile(ms, 90), "ms"},
		"sim_minst_per_s":   {insts / float64(len(us)) / stats.Percentile(unitS, 50) / 1e6, "Minst/s"},
		"setup_s":           {stats.Percentile(setup, 50), "s"},
		"alloc_mb_per_cell": {stats.Percentile(alloc, 50), "MB"},
		"rss_peak_mb":       {peakRSS(), "MB"},
	}
}

// cellMS is each unit's host wall time per cell delivered, in ms.
func cellMS(us []unitResult) []float64 {
	var ms []float64
	for _, u := range us {
		ms = append(ms, float64(u.wall)/float64(time.Millisecond)/float64(u.cells))
	}
	return ms
}

// peakRSS is the process's peak resident set size in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mib // Linux reports kilobytes
}
