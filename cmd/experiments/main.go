// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [flags] <target>...
//
// Targets: table1 table2 table3 table4 table5 fig1b fig2 fig5 fig6 fig7
// fig8 fig9 fig10 power ext-rand ext-ddr5 ext-rowswap ext-policies
// chaos arena all
//
// The arena target sweeps every tracking scheme across the -thresholds
// list (benign performance, adversarial security verdicts, adversarial
// slowdown; see docs/TRACKERS.md). It is not part of "all": its cell
// count scales with the threshold list, so it is run explicitly.
//
// Flags:
//
//	-scale N          footprint scale (1 = full 64 ms window; default 16)
//	-trh N            row-hammer threshold (default 500)
//	-thresholds a,b   arena T_RH sweep points (default 4800,2000,1000,500)
//	-workloads a,b    restrict to the named workloads
//	-par N            parallel simulations (default NumCPU)
//	-seed N           workload seed (0 is a valid seed)
//	-json FILE        write a machine-readable run report ("-" = stdout)
//	-trace FILE       write a JSONL event trace (serializes the sweep)
//	-trace-cap N      event ring capacity (oldest dropped beyond this)
//	-cell-timeout D   wall-clock budget per sweep cell (0 = unbounded)
//	-chaos a,b        restrict the chaos target to the named scenarios
//	-cache-dir DIR    persist the content-addressed result cache to DIR
//	                  (schema hydra-cell-cache/v1) so identical cells
//	                  replay across invocations; rerunning an
//	                  interrupted or partly failed campaign over the
//	                  same DIR recomputes only the missing cells
//	-no-cache         disable result caching entirely (every cell
//	                  simulates; the default keeps an in-memory cache
//	                  that dedupes identical cells across targets)
//	-listen ADDR      serve live telemetry on ADDR (":0" = ephemeral):
//	                  /metrics, /metrics.json, /events, /healthz,
//	                  /debug/pprof — see docs/METRICS.md
//	-progress         render a live campaign progress line on stderr
//	-cpuprofile FILE  write a pprof CPU profile
//	-memprofile FILE  write a pprof heap profile
//
// With -json, every target's report (schema hydra-run-report/v1,
// documented in docs/METRICS.md) is collected into one report file;
// text tables still go to stdout unless -json is "-". Failed sweep
// cells never abort a perf target: they are reported per cell in the
// "cells" section and the remaining cells complete.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 130
// interrupted (SIGINT/SIGTERM; the directory named by -cache-dir holds
// every cacheable cell that completed, so rerunning with the same flags
// simulates only the rest).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/obsv"
)

func main() { cli.Main("experiments", run) }

var allTargets = []string{"table1", "table2", "table3", "table4", "table5",
	"fig1b", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "power",
	"ext-rand", "ext-ddr5", "ext-rowswap", "ext-policies", "chaos"}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scale := fs.Float64("scale", 16, "footprint scale (1 = full 64 ms window)")
	trh := fs.Int("trh", 500, "row-hammer threshold")
	thresholds := fs.String("thresholds", "", "comma-separated arena T_RH sweep (default 4800,2000,1000,500)")
	workloads := fs.String("workloads", "", "comma-separated workload subset")
	par := fs.Int("par", 0, "parallel simulations (0 = NumCPU)")
	seed := fs.Uint64("seed", 1, "workload seed (0 is a valid seed)")
	jsonOut := fs.String("json", "", "write a run-report JSON file (\"-\" = stdout)")
	traceOut := fs.String("trace", "", "write a JSONL event trace (serializes the sweep)")
	traceCap := fs.Int("trace-cap", 1<<20, "event-trace ring capacity")
	cellTimeout := fs.Duration("cell-timeout", 0, "wall-clock budget per sweep cell (0 = unbounded)")
	chaos := fs.String("chaos", "", "comma-separated chaos scenarios (default: all built-ins)")
	cacheDir := fs.String("cache-dir", "", "persist the result cache to this directory across runs")
	noCache := fs.Bool("no-cache", false, "disable result caching (simulate every cell)")
	listen := fs.String("listen", "", "serve live telemetry (/metrics, /events, pprof) on this address")
	progress := fs.Bool("progress", false, "render a live campaign progress line on stderr")
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile")
	memProf := fs.String("memprofile", "", "write a pprof heap profile")
	if err := cli.ParseError(fs.Parse(args)); err != nil {
		return err
	}

	opts := exp.Options{
		Scale:       *scale,
		TRH:         *trh,
		Parallelism: *par,
		Seed:        seed,
		CellTimeout: *cellTimeout,
		Ctx:         ctx,
	}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	if *traceOut != "" {
		opts.Trace = obsv.NewTracer(*traceCap)
	}
	if !*noCache {
		// One cache across every target of this invocation: the shared
		// in-memory tier is what lets `experiments all` simulate the
		// common baseline cells once and replay them in every later
		// figure. -cache-dir adds the cross-invocation disk tier.
		cache, err := harness.NewCellCache(*cacheDir)
		if err != nil {
			return err
		}
		cache.Decode = exp.DecodeResult
		opts.Cache = cache
	} else if *cacheDir != "" {
		return cli.Usagef("-no-cache and -cache-dir are mutually exclusive")
	}
	var sweepTRH []int
	if *thresholds != "" {
		for _, s := range strings.Split(*thresholds, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 2 {
				return cli.Usagef("-thresholds: %q is not a threshold >= 2", s)
			}
			sweepTRH = append(sweepTRH, n)
		}
	}
	var scenarios []string
	if *chaos != "" {
		scenarios = strings.Split(*chaos, ",")
		for _, name := range scenarios {
			if _, err := faults.ScenarioByName(name); err != nil {
				return cli.Usagef("%v", err)
			}
		}
	}

	targets := fs.Args()
	if len(targets) == 0 {
		return cli.Usagef("usage: experiments [flags] <target>...\ntargets: %s arena all",
			strings.Join(allTargets, " "))
	}
	if len(targets) == 1 && targets[0] == "all" {
		targets = allTargets
	}

	stopProfiles, err := obsv.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProfiles()

	// Live telemetry: one bus and one registry span every target of the
	// invocation, so /events and /metrics describe the whole campaign.
	stopProgress := func() {}
	if *listen != "" || *progress {
		opts.Bus = harness.NewBus(0)
		opts.Live = obsv.NewRegistry()
		defer opts.Bus.Close()
		stopTelemetry, err := obsv.ListenFlag(*listen, obsv.ServerOptions{
			Gather: opts.Live.Snapshot,
			Events: opts.Bus,
		})
		if err != nil {
			return err
		}
		defer stopTelemetry() //nolint:errcheck // best-effort shutdown on exit
		if *progress {
			stopProgress = startProgress(opts.Bus)
		}
	}

	var reports []*obsv.Report
	for _, target := range targets {
		topts := opts
		topts.Target = target
		start := time.Now()
		rep, err := runTarget(target, topts, scenarios, sweepTRH)
		if err != nil {
			return fmt.Errorf("%s: %w", target, err)
		}
		elapsed := time.Since(start)
		if *jsonOut != "" {
			reports = append(reports, exp.BuildReport(target, topts, rep, elapsed))
		}
		if *jsonOut != "-" {
			fmt.Println(format(rep))
			fmt.Printf("[%s took %v]\n\n", target, elapsed.Round(time.Millisecond))
		}
	}

	stopProgress()

	if opts.Cache != nil && *jsonOut != "-" {
		if s := opts.Cache.Stats(); s.Hits+s.Misses > 0 {
			fmt.Printf("[result cache: %d hits (%d mem, %d disk), %d misses, %d stored",
				s.Hits, s.MemHits, s.DiskHits, s.Misses, s.Stores)
			if opts.Cache.Dir() != "" {
				fmt.Printf(", %d B read, %d B written", s.BytesRead, s.BytesWritten)
			}
			if s.CorruptDropped > 0 {
				fmt.Printf(", %d corrupt entries dropped (%d quarantined)", s.CorruptDropped, s.Quarantined)
			}
			fmt.Println("]")
		}
	}

	if *jsonOut != "" {
		if err := obsv.NewReportFile(reports...).WriteFile(*jsonOut); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	if *traceOut != "" {
		if err := writeTrace(opts.Trace, *traceOut); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return stopProfiles()
}

// writeTrace dumps the event ring as JSONL.
func writeTrace(tr *obsv.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if d := tr.Dropped(); d > 0 {
		fmt.Printf("[trace ring dropped %d oldest events; raise -trace-cap to keep more]\n", d)
	}
	return nil
}

// formatter is implemented by every structured report.
type formatter interface{ Format() string }

func format(rep any) string {
	if f, ok := rep.(formatter); ok {
		return f.Format()
	}
	return fmt.Sprint(rep)
}

func runTarget(target string, opts exp.Options, scenarios []string, thresholds []int) (any, error) {
	switch target {
	case "table1":
		return exp.Table1Text(), nil
	case "table2":
		return exp.Table2Text(), nil
	case "table3":
		return exp.Table3(opts)
	case "table4":
		return exp.Table4Text(), nil
	case "table5":
		return exp.Table5Text(opts.TRH), nil
	case "fig1b":
		return exp.Figure1b(opts)
	case "fig2":
		return exp.Figure2(opts)
	case "fig5":
		return exp.Figure5(opts)
	case "fig6":
		return exp.Figure6(opts)
	case "fig7":
		return exp.Figure7(opts)
	case "fig8":
		return exp.Figure8(opts)
	case "fig9":
		return exp.Figure9(opts)
	case "fig10":
		return exp.Figure10(opts)
	case "power":
		return exp.Power(opts)
	case "ext-rand":
		return exp.ExtensionRandomized(opts)
	case "ext-ddr5":
		return exp.ExtensionDDR5(opts)
	case "ext-rowswap":
		return exp.ExtensionRowSwap(opts)
	case "ext-policies":
		return exp.ExtensionPolicies(opts)
	case "chaos":
		return exp.Chaos(opts, scenarios)
	case "arena":
		return exp.Arena(opts, thresholds)
	default:
		return nil, cli.Usagef("unknown target %q (targets: %s arena all)", target, strings.Join(allTargets, " "))
	}
}
