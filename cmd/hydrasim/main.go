// Command hydrasim runs one workload through the full-system
// simulator under a chosen tracker and prints the result: cycles, IPC,
// memory statistics, tracker traffic and (for Hydra) the Figure 4
// access distribution.
//
// Usage:
//
//	hydrasim -workload parest -tracker hydra -scale 16 -trh 500
//	hydrasim -workload GUPS -json run.json -trace run.jsonl
//	hydrasim -workload 'custom:SPEC:20:16000:400:40'    # ad-hoc profile
//
// Trackers: none hydra hydra-nogct hydra-norcc graphene cra ocpr para
// start mint dapper
//
// The -workload flag accepts a named profile from Table 3, "list" to
// enumerate them, or an inline spec "name:suite:mpki:rows:hot:actsper"
// (see workload.ParseProfile).
//
// -json writes a machine-readable run report (schema
// hydra-run-report/v1), -trace a JSONL event trace, and
// -cpuprofile/-memprofile pprof profiles; all are documented in
// docs/METRICS.md. -listen serves the telemetry plane (/healthz and
// /debug/pprof during the run; /metrics carries the tracked run's
// metrics once it completes).
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 130
// interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cli"
	"repro/internal/cpu"
	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() { cli.Main("hydrasim", run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("hydrasim", flag.ContinueOnError)
	name := fs.String("workload", "parest", "workload name (see Table 3), 'list', or an inline spec name:suite:mpki:rows:hot:actsper")
	tracker := fs.String("tracker", "hydra", "tracker: none|hydra|hydra-nogct|hydra-norcc|graphene|cra|ocpr|para|start|mint|dapper")
	scale := fs.Float64("scale", 16, "footprint scale (1 = full 64 ms window)")
	trh := fs.Int("trh", 500, "row-hammer threshold")
	craKB := fs.Int("cra-cache-kb", 64, "CRA metadata-cache size in KB")
	seed := fs.Uint64("seed", 1, "workload seed")
	baseline := fs.Bool("baseline", true, "also run the non-secure baseline and report slowdown")
	policy := fs.String("mitigation", "refresh", "mitigation policy: refresh|rowswap|throttle")
	traceDir := fs.String("tracedir", "", "replay recorded traces (core*.trc from tracegen) instead of generating")
	jsonOut := fs.String("json", "", "write a run-report JSON file (\"-\" = stdout)")
	traceOut := fs.String("trace", "", "write a JSONL event trace of the tracked run")
	traceCap := fs.Int("trace-cap", 1<<20, "event-trace ring capacity")
	listen := fs.String("listen", "", "serve live telemetry (/metrics, pprof) on this address")
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile")
	memProf := fs.String("memprofile", "", "write a pprof heap profile")
	if err := cli.ParseError(fs.Parse(args)); err != nil {
		return err
	}

	if *name == "list" {
		for _, p := range workload.Profiles() {
			fmt.Printf("%-12s %-10s MPKI=%-6.2f rows=%-7d hot=%-5d acts/row=%.1f\n",
				p.Name, p.Suite, p.MPKI, p.UniqueRows, p.Hot250, p.ActsPerRow)
		}
		return nil
	}

	p, err := workload.ByNameOrSpec(*name)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	stopProfiles, err := obsv.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProfiles()

	// The telemetry server starts before the (blocking) simulation so
	// /debug/pprof can profile it live; /metrics serves the tracked
	// run's snapshot once the run completes.
	live := obsv.NewRegistry()
	stopTelemetry, err := obsv.ListenFlag(*listen, obsv.ServerOptions{Gather: live.Snapshot})
	if err != nil {
		return err
	}
	defer stopTelemetry() //nolint:errcheck // best-effort shutdown on exit

	cfg := sim.Default(p)
	cfg.Ctx = ctx // SIGINT/SIGTERM aborts the run (exit 130)
	cfg.Scale = *scale
	cfg.TRH = *trh
	cfg.Seed = *seed
	cfg.Tracker = sim.TrackerKind(*tracker)
	cfg.CRACacheBytes = *craKB * 1024
	cfg.Mitigation = sim.MitigationPolicy(*policy)
	if *traceOut != "" {
		cfg.Trace = obsv.NewTracer(*traceCap)
	}
	if *traceDir != "" {
		srcs, closers, err := loadTraces(*traceDir)
		defer func() {
			for _, c := range closers {
				c.Close()
			}
		}()
		if err != nil {
			return err
		}
		cfg.Traces = srcs
	}

	start := time.Now()
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	live.Merge(res.Metrics)

	fmt.Printf("workload   %s (%s)\n", res.Workload, p.Suite)
	fmt.Printf("tracker    %s (SRAM %d bytes)\n", res.Tracker, res.SRAMBytes)
	fmt.Printf("cycles     %d (%.2f ms of 3.2 GHz time), IPC %.3f\n",
		res.Cycles, float64(res.Cycles)/3.2e6, res.IPC())
	fmt.Printf("memory     reads=%d writes=%d activates=%d row-hits=%d refreshes=%d avg-read-lat=%.0f cyc\n",
		res.Mem.Reads, res.Mem.Writes, res.Mem.Activates, res.Mem.RowHits,
		res.Mem.Refreshes, res.Mem.AvgReadLatency())
	fmt.Printf("tracking   mitigations=%d victim-acts=%d meta-reads=%d meta-writes=%d\n",
		res.Mitigations, res.Mem.MitigActs, res.Mem.MetaReads, res.Mem.MetaWrites)
	if res.Swaps > 0 || res.Throttles > 0 {
		fmt.Printf("policy     swaps=%d throttles=%d\n", res.Swaps, res.Throttles)
	}
	if res.Hydra != nil && res.Hydra.Acts > 0 {
		a := float64(res.Hydra.Acts)
		fmt.Printf("hydra      GCT-only %.1f%%  RCC-hit %.1f%%  RCT-DRAM %.1f%%  group-inits=%d\n",
			float64(res.Hydra.GCTOnly)/a*100, float64(res.Hydra.RCCHit)/a*100,
			float64(res.Hydra.RCTAccess)/a*100, res.Hydra.GroupInits)
	}
	if res.CRA != nil {
		fmt.Printf("cra        cache-hits=%d miss-fetches=%d writebacks=%d\n",
			res.CRA.Hits, res.CRA.MissFetches, res.CRA.Writebacks)
	}

	norm := 0.0
	if *baseline && cfg.Tracker != sim.TrackNone {
		bcfg := cfg
		bcfg.Tracker = sim.TrackNone
		bcfg.Trace = nil // trace only the tracked run
		base, err := sim.Run(bcfg)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		norm = float64(base.Cycles) / float64(res.Cycles)
		fmt.Printf("baseline   %d cycles -> normalized perf %.4f (slowdown %.2f%%)\n",
			base.Cycles, norm, stats.SlowdownPct(norm))
	}
	fmt.Printf("[simulated in %v]\n", elapsed.Round(time.Millisecond))

	if *jsonOut != "" {
		rep := obsv.NewReport("hydrasim", res.Workload+"/"+res.Tracker)
		rep.ElapsedSec = elapsed.Seconds()
		rep.Params = map[string]any{
			"scale": *scale, "trh": *trh, "seed": *seed,
			"tracker": *tracker, "mitigation": *policy,
		}
		rep.Schemes = []string{res.Tracker}
		rep.Metrics = res.Metrics
		if norm > 0 {
			rep.Workloads = []obsv.WorkloadReport{{
				Name:        res.Workload,
				Suite:       string(p.Suite),
				NormPerf:    map[string]float64{res.Tracker: norm},
				SlowdownPct: map[string]float64{res.Tracker: stats.SlowdownPct(norm)},
			}}
		}
		if err := obsv.NewReportFile(rep).WriteFile(*jsonOut); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := cfg.Trace.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if d := cfg.Trace.Dropped(); d > 0 {
			fmt.Printf("[trace ring dropped %d oldest events; raise -trace-cap]\n", d)
		}
	}
	return stopProfiles()
}

// loadTraces opens every core*.trc in dir, in core order. The returned
// closers are valid even on error (close what was opened).
func loadTraces(dir string) ([]cpu.TraceSource, []*os.File, error) {
	files, err := filepath.Glob(filepath.Join(dir, "core*.trc"))
	if err != nil {
		return nil, nil, err
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no core*.trc files in %s", dir)
	}
	sort.Strings(files)
	var srcs []cpu.TraceSource
	var closers []*os.File
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, closers, err
		}
		closers = append(closers, f)
		r, err := trace.NewReader(f)
		if err != nil {
			return nil, closers, fmt.Errorf("%s: %w", path, err)
		}
		srcs = append(srcs, r)
	}
	return srcs, closers, nil
}
