package stats

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// BenchSchema identifies the benchmark baseline file format.
const BenchSchema = "hydra-bench-baseline/v1"

// BenchResult is one benchmark measurement parsed from `go test -bench`
// output.
type BenchResult struct {
	N           int64   `json:"n"`             // iterations run
	NsPerOp     float64 `json:"ns_per_op"`     // wall time per op
	BytesPerOp  int64   `json:"bytes_per_op"`  // -1 when not reported
	AllocsPerOp int64   `json:"allocs_per_op"` // -1 when not reported
}

// BenchEnv records the machine a baseline was measured on. Benchmark
// times only gate meaningfully against a baseline from a comparable
// environment — a number recorded on a 16-core box says nothing about a
// single-core CI runner (and the figure and campaign benchmarks run one
// sweep cell per CPU, so their wall time scales with the CPU count), so
// comparisons check this and fail loudly on mismatch instead of
// silently drifting.
type BenchEnv struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentBenchEnv captures the running process's environment.
func CurrentBenchEnv() BenchEnv {
	return BenchEnv{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Mismatch describes why results from env e cannot be compared against
// a baseline recorded under base; it returns "" when they can.
func (e BenchEnv) Mismatch(base BenchEnv) string {
	switch {
	case e.GOOS != base.GOOS || e.GOARCH != base.GOARCH:
		return fmt.Sprintf("platform %s/%s, baseline recorded on %s/%s",
			e.GOOS, e.GOARCH, base.GOOS, base.GOARCH)
	case e.NumCPU != base.NumCPU:
		return fmt.Sprintf("%d CPUs, baseline recorded with %d", e.NumCPU, base.NumCPU)
	case e.GOMAXPROCS != base.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d, baseline recorded at %d", e.GOMAXPROCS, base.GOMAXPROCS)
	}
	return ""
}

// BenchFile is the on-disk baseline artifact: the measurements and the
// environment they were recorded in. Env is nil in baselines written
// before it existed; those compare without the environment check.
// BENCH_4.json and BENCH_8.json to BENCH_12.json also carry the
// `previous` and `speedup` tables that a removed write option recorded;
// they load, and the tables are ignored.
type BenchFile struct {
	Schema     string                 `json:"schema"`
	Env        *BenchEnv              `json:"env,omitempty"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
}

// ParseBench extracts benchmark lines from `go test -bench` output.
// Names are normalized by stripping the trailing -GOMAXPROCS suffix.
// Non-benchmark lines are ignored, so raw test output can be piped in.
// A benchmark repeated with `go test -count N` reduces to the median of
// each column (nearest rank, as Percentile), so a gate compares a
// central sample rather than whichever run printed last.
func ParseBench(r io.Reader) (map[string]BenchResult, error) {
	runs := make(map[string][]BenchResult)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue // e.g. "Benchmarking..." prose
		}
		res := BenchResult{N: n, BytesPerOp: -1, AllocsPerOp: -1}
		ok := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("stats: bad benchmark value %q in %q", f[i], sc.Text())
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = v
				ok = true
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			}
		}
		if ok {
			name := benchName(f[0])
			runs[name] = append(runs[name], res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]BenchResult, len(runs))
	for name, rs := range runs {
		out[name] = medianBench(rs)
	}
	return out, nil
}

// medianBench reduces repeated runs of one benchmark to the median of
// each column.
func medianBench(rs []BenchResult) BenchResult {
	col := func(f func(BenchResult) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return Percentile(xs, 50)
	}
	return BenchResult{
		N:           int64(col(func(r BenchResult) float64 { return float64(r.N) })),
		NsPerOp:     col(func(r BenchResult) float64 { return r.NsPerOp }),
		BytesPerOp:  int64(col(func(r BenchResult) float64 { return float64(r.BytesPerOp) })),
		AllocsPerOp: int64(col(func(r BenchResult) float64 { return float64(r.AllocsPerOp) })),
	}
}

// benchName strips the -N GOMAXPROCS suffix go test appends.
func benchName(s string) string {
	if i := strings.LastIndexByte(s, '-'); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			return s[:i]
		}
	}
	return s
}

// Direction says which way a compared value improves.
type Direction int

const (
	LowerIsBetter  Direction = iota // ns/op, allocs/op
	HigherIsBetter                  // normalized-performance geomeans
)

// Delta is one named value matched against its baseline by Compare.
type Delta struct {
	Name      string
	Base, Cur float64 // zero on the side the name is missing from
	New       bool    // only in the current values
	Removed   bool    // only in the baseline
	Worse     bool    // worse than Base by more than the bound
}

// Compare matches current values against their baselines by name and
// returns one Delta per name, in name order. A value is Worse when it
// lies beyond base+bound·|base| when lower is better, or below
// base−bound·|base| when higher is. The margin is added to the
// baseline, not multiplied into it, so an integer count with bound
// AllocBound may exceed its baseline by ⌊base/1000⌋ and no more (the
// product base·1.001 already flags 1,000 → 1,001), and a decimal move
// of exactly the bound, such as 1 → 0.99 at 0.01, is not Worse. A name
// on one side only is New or Removed and never Worse, so an added
// benchmark does not force a new baseline and a deleted one is listed
// rather than silently dropped.
func Compare(base, cur map[string]float64, bound float64, dir Direction) []Delta {
	names := make([]string, 0, len(base)+len(cur))
	for name := range base {
		names = append(names, name)
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]Delta, len(names))
	for i, name := range names {
		b, inBase := base[name]
		c, inCur := cur[name]
		margin := bound * math.Abs(b)
		worse := c > b+margin
		if dir == HigherIsBetter {
			worse = c < b-margin
		}
		out[i] = Delta{Name: name, Base: b, Cur: c, New: !inBase, Removed: !inCur,
			Worse: inBase && inCur && worse}
	}
	return out
}

// AllocBound is the benchmark gate's bound on allocs/op: 0.1% of the
// baseline, which Compare truncates to ⌊base/1000⌋ allocations.
// Microbenchmark counts are deterministic and under 1000, so going
// from 0 to 1 allocs/op fails. The figure sweeps schedule cells over a
// worker pool, so their counts jitter between runs; for the smallest,
// a few thousand allocs/op, the jitter exceeds this slack
// (docs/PERFORMANCE.md, "The regression gate").
const AllocBound = 0.001

// BenchColumns splits results into the two columns the benchmark gate
// compares, ns/op and allocs/op. A result without allocs/op (-1, from
// a run without -benchmem) has no allocs entry, so Compare lists it as
// New or Removed there instead of comparing -1.
func BenchColumns(rs map[string]BenchResult) (ns, allocs map[string]float64) {
	ns, allocs = make(map[string]float64, len(rs)), make(map[string]float64, len(rs))
	for name, r := range rs {
		ns[name] = r.NsPerOp
		if r.AllocsPerOp >= 0 {
			allocs[name] = float64(r.AllocsPerOp)
		}
	}
	return ns, allocs
}

// WriteBenchFile writes the baseline artifact, stamped with the
// current environment. Baselines are append-only: the file is created
// exclusively, and an existing path is an error that leaves it intact.
func WriteBenchFile(path string, current map[string]BenchResult) error {
	env := CurrentBenchEnv()
	data, err := json.MarshalIndent(BenchFile{Schema: BenchSchema, Env: &env, Benchmarks: current}, "", "  ")
	if err != nil {
		return err
	}
	out, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, fs.ErrExist) {
		return fmt.Errorf("stats: baseline %s already exists; baselines are append-only, write a new BENCH_<N>.json", path)
	}
	if err != nil {
		return err
	}
	_, err = out.Write(append(data, '\n'))
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadBenchFile reads a baseline artifact written by WriteBenchFile.
func LoadBenchFile(path string) (BenchFile, error) {
	var f BenchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("stats: parsing %s: %w", path, err)
	}
	if f.Schema != BenchSchema {
		return f, fmt.Errorf("stats: %s has schema %q, want %q", path, f.Schema, BenchSchema)
	}
	return f, nil
}
