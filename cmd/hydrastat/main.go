// Command hydrastat is the offline analyzer and regression gate. It
// reads hydra-run-report/v1 files (written by `experiments -json` and
// `hydrasim -json`) for per-target summaries and figure-level diffs,
// and `go test -bench` output for the benchmark baselines. diff gates
// on what the simulated system did, bench on the simulator's own
// speed and allocations; both flag a value with stats.Compare.
//
// Usage:
//
//	hydrastat summarize [-top N] report.json...
//	hydrastat diff [-tolerance F] A.json B.json
//	go test -bench ... | hydrastat bench -write NEW.json
//	go test -bench ... | hydrastat bench -compare BASE.json [-tolerance F] [-allow-env-mismatch]
//
// summarize prints, per report: the run envelope and parameters, the
// campaign cell verdicts with the slowest cells ranked by wall-clock
// (and their simulated-cycle rate), per-scheme suite geomeans, the
// largest counters, and p50/p95/p99 for every histogram metric.
//
// diff matches reports by target and compares per-scheme suite
// geomeans: a geomean that drops by more than -tolerance (fractional,
// default 0.01) is a regression and makes the exit code 1. Aggregate
// metric movements beyond the tolerance are listed as context.
//
// bench reads `go test -bench -benchmem` text on stdin, where -count
// repeats reduce to per-column medians. -write records it in a new,
// environment-stamped baseline and refuses an existing file. -compare
// prints each benchmark's ns/op and ratio against the baseline and
// fails when one is slower by more than -tolerance (default 0.40),
// allocates more than 0.1% over the baseline's allocs/op, or has no
// allocs/op (a run without -benchmem) against a baseline that has
// them. Benchmarks on one side only are listed as new or removed and
// never fail. A baseline from another GOOS/GOARCH, CPU count or
// GOMAXPROCS is refused unless -allow-env-mismatch makes that a
// warning. docs/PERFORMANCE.md describes the gate.
//
// Exit codes: 0 success / no regression, 1 runtime failure or
// regression, 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/hydrastat"
	"repro/internal/obsv"
	"repro/internal/stats"
)

func main() { cli.Main("hydrastat", run) }

func run(_ context.Context, args []string) error {
	if len(args) == 0 {
		return cli.Usagef("usage: hydrastat <summarize|diff|bench> [flags] [file]...")
	}
	switch args[0] {
	case "summarize":
		return runSummarize(args[1:])
	case "diff":
		return runDiff(args[1:])
	case "bench":
		return runBench(args[1:])
	default:
		return cli.Usagef("unknown subcommand %q (want summarize, diff or bench)", args[0])
	}
}

func runSummarize(args []string) error {
	fs := flag.NewFlagSet("hydrastat summarize", flag.ContinueOnError)
	top := fs.Int("top", 5, "entries in the slowest-cells and top-counters lists")
	if err := cli.ParseError(fs.Parse(args)); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return cli.Usagef("usage: hydrastat summarize [-top N] <report.json>...")
	}
	for i, path := range fs.Args() {
		f, err := obsv.ReadReportFile(path)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Println()
		}
		if fs.NArg() > 1 {
			fmt.Printf("== %s ==\n", path)
		}
		fmt.Print(hydrastat.Summarize(f, *top))
	}
	return nil
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("hydrastat diff", flag.ContinueOnError)
	tolerance := fs.Float64("tolerance", 0.01, "fractional geomean drop tolerated before failing")
	if err := cli.ParseError(fs.Parse(args)); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return cli.Usagef("usage: hydrastat diff [-tolerance F] <A.json> <B.json>")
	}
	a, err := obsv.ReadReportFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := obsv.ReadReportFile(fs.Arg(1))
	if err != nil {
		return err
	}
	d := hydrastat.Diff(a, b, *tolerance)
	fmt.Print(d.Format())
	if regs := d.Regressions(); len(regs) > 0 {
		return fmt.Errorf("%d geomean regression(s) beyond %.1f%% tolerance", len(regs), *tolerance*100)
	}
	return nil
}

func runBench(args []string) error {
	fs := flag.NewFlagSet("hydrastat bench", flag.ContinueOnError)
	write := fs.String("write", "", "new baseline file to record stdin in (never overwritten)")
	compare := fs.String("compare", "", "baseline file to gate stdin against")
	tolerance := fs.Float64("tolerance", 0.40, "fractional ns/op slowdown tolerated before failing (-compare)")
	allowEnv := fs.Bool("allow-env-mismatch", false, "warn instead of failing on a baseline from a different machine (-compare)")
	if err := cli.ParseError(fs.Parse(args)); err != nil {
		return err
	}
	if (*write == "") == (*compare == "") || fs.NArg() != 0 {
		return cli.Usagef("usage: hydrastat bench -write NEW.json | -compare BASE.json [-tolerance F] [-allow-env-mismatch] < bench-output")
	}
	current, err := stats.ParseBench(os.Stdin)
	if err != nil {
		return err
	}
	if len(current) == 0 {
		return fmt.Errorf("no benchmark results on stdin")
	}
	if *write != "" {
		if err := stats.WriteBenchFile(*write, current); err != nil {
			return err
		}
		fmt.Printf("wrote %s with %d benchmarks\n", *write, len(current))
		return nil
	}
	return compareBench(*compare, current, *tolerance, *allowEnv)
}

func compareBench(path string, current map[string]stats.BenchResult, tolerance float64, allowEnv bool) error {
	base, err := stats.LoadBenchFile(path)
	if err != nil {
		return err
	}
	if base.Env != nil {
		if why := stats.CurrentBenchEnv().Mismatch(*base.Env); why != "" {
			if !allowEnv {
				return fmt.Errorf("environment mismatch vs %s: %s "+
					"(benchmark times from different machines do not compare; "+
					"re-record the baseline here or pass -allow-env-mismatch)", path, why)
			}
			fmt.Printf("warning: environment mismatch vs %s: %s\n", path, why)
		}
	}
	baseNs, baseAllocs := stats.BenchColumns(base.Benchmarks)
	curNs, curAllocs := stats.BenchColumns(current)
	allocs := make(map[string]stats.Delta, len(baseAllocs))
	for _, a := range stats.Compare(baseAllocs, curAllocs, stats.AllocBound, stats.LowerIsBetter) {
		allocs[a.Name] = a
	}
	common, failed := 0, false
	for _, d := range stats.Compare(baseNs, curNs, tolerance, stats.LowerIsBetter) {
		if d.New {
			fmt.Printf("%-40s %24.1f ns/op  new (not in baseline)\n", d.Name, d.Cur)
			continue
		}
		if d.Removed {
			fmt.Printf("%-40s %10.1f ns/op  removed (not in current run)\n", d.Name, d.Base)
			continue
		}
		common++
		status := "ok"
		switch a := allocs[d.Name]; {
		case d.Worse:
			status = fmt.Sprintf("REGRESSED: %.1f ns/op exceeds baseline %.1f by more than %.0f%%", d.Cur, d.Base, tolerance*100)
		case a.Worse:
			status = fmt.Sprintf("REGRESSED: %.0f allocs/op exceeds baseline %.0f", a.Cur, a.Base)
		case a.Removed:
			status = fmt.Sprintf("REGRESSED: no allocs/op to check against baseline %.0f; run go test with -benchmem", a.Base)
		}
		if status != "ok" {
			failed = true
		}
		fmt.Printf("%-40s %10.1f -> %10.1f ns/op (%.2fx)  %s\n", d.Name, d.Base, d.Cur, d.Cur/d.Base, status)
	}
	if common == 0 {
		return fmt.Errorf("no benchmarks in common with %s", path)
	}
	if failed {
		return fmt.Errorf("benchmark regression beyond %.0f%% tolerance", tolerance*100)
	}
	return nil
}
