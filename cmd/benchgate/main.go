// Command benchgate turns `go test -bench` output into a committed
// performance baseline and gates later runs against it.
//
// Write a baseline (optionally recording the measurements it replaced,
// so the artifact shows the speedup the change delivered). Baselines
// are append-only: -out must name a file that does not exist yet.
//
//	go test -bench . -benchmem ./... | benchgate -write -out BENCH_11.json [-prev old-bench.txt]
//
// Gate a run against the baseline (non-zero exit on regression):
//
//	go test -bench . -benchmem ./... | benchgate -compare BENCH_4.json [-tolerance 0.40]
//
// A run regresses when it is slower than the baseline by more than the
// tolerance, or allocates more per op. Benchmarks absent from the
// baseline are reported as new and never fail the gate (the next
// `benchgate -write` absorbs them); benchmarks only in the baseline
// are reported as removed and never fail it either.
//
// Baselines record the machine they were measured on (GOOS/GOARCH,
// CPU count, GOMAXPROCS); -compare refuses a baseline from a different
// environment unless -allow-env-mismatch is set, because wall-clock
// comparisons across machines gate nothing and drift silently.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/stats"
)

func main() {
	var (
		write     = flag.Bool("write", false, "write a new baseline from stdin")
		out       = flag.String("out", "", "new baseline file to write (required with -write; never overwritten)")
		prev      = flag.String("prev", "", "prior go-test bench output to record as 'previous' (write mode)")
		compare   = flag.String("compare", "", "baseline file to gate stdin against")
		tolerance = flag.Float64("tolerance", 0.40, "allowed fractional time regression (compare mode)")
		allowEnv  = flag.Bool("allow-env-mismatch", false, "compare across differing machines (environment deltas are reported, not fatal)")
	)
	flag.Parse()
	if err := run(*write, *out, *prev, *compare, *tolerance, *allowEnv); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(write bool, out, prev, compare string, tolerance float64, allowEnv bool) error {
	if write == (compare != "") {
		return fmt.Errorf("exactly one of -write or -compare is required")
	}
	if write && out == "" {
		return fmt.Errorf("-write requires -out")
	}
	current, err := stats.ParseBench(os.Stdin)
	if err != nil {
		return err
	}
	if len(current) == 0 {
		return fmt.Errorf("no benchmark results on stdin")
	}

	if write {
		var prevResults map[string]stats.BenchResult
		if prev != "" {
			f, err := os.Open(prev)
			if err != nil {
				return err
			}
			prevResults, err = stats.ParseBench(f)
			f.Close()
			if err != nil {
				return err
			}
		}
		if err := stats.WriteBenchFile(out, current, prevResults); err != nil {
			return err
		}
		fmt.Printf("wrote %s with %d benchmarks\n", out, len(current))
		for name, s := range mustSpeedups(out) {
			fmt.Printf("  %-40s %6.2fx vs previous\n", name, s)
		}
		return nil
	}

	base, err := stats.LoadBenchFile(compare)
	if err != nil {
		return err
	}
	// Baselines written before the environment stamp existed (nil Env)
	// compare unchecked; everything newer gates on a comparable machine.
	if base.Env != nil {
		if why := stats.CurrentBenchEnv().Mismatch(*base.Env); why != "" {
			if !allowEnv {
				return fmt.Errorf("environment mismatch vs %s: %s "+
					"(benchmark times from different machines do not compare; "+
					"re-record the baseline here or pass -allow-env-mismatch)", compare, why)
			}
			fmt.Printf("warning: environment mismatch vs %s: %s\n", compare, why)
		}
	}
	deltas := stats.CompareBench(base.Benchmarks, current, tolerance)
	common := 0
	for _, d := range deltas {
		if !d.New && !d.Removed {
			common++
		}
	}
	if common == 0 {
		return fmt.Errorf("no benchmarks in common with %s", compare)
	}
	failed := false
	for _, d := range deltas {
		if d.New {
			fmt.Printf("%-40s %24.1f ns/op  new (not in baseline)\n",
				d.Name, d.Current.NsPerOp)
			continue
		}
		if d.Removed {
			fmt.Printf("%-40s %10.1f ns/op  removed (not in current run)\n",
				d.Name, d.Baseline.NsPerOp)
			continue
		}
		status := "ok"
		if d.Regressed {
			status = "REGRESSED: " + d.Reason
			failed = true
		}
		fmt.Printf("%-40s %10.1f -> %10.1f ns/op (%.2fx)  %s\n",
			d.Name, d.Baseline.NsPerOp, d.Current.NsPerOp, d.Ratio, status)
	}
	if failed {
		return fmt.Errorf("benchmark regression beyond %.0f%% tolerance", tolerance*100)
	}
	return nil
}

// mustSpeedups reloads the just-written file's speedup table (empty
// when no previous results were recorded).
func mustSpeedups(path string) map[string]float64 {
	f, err := stats.LoadBenchFile(path)
	if err != nil {
		return nil
	}
	return f.Speedup
}
