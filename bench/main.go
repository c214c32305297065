// Command bench is the repository's end-to-end benchmark. It drives the
// simulator from outside, through its public entry points only
// (sim.New, (*sim.System).Run, exp.Sweep, harness.NewCellCache and the
// harness.Bus cell events), checks every simulated output against a
// golden digest, and prints its metrics by name and unit, ending with
// one JSON object on the last line of standard output.
//
// Usage, from the root of the repository:
//
//	bash bench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// repeats the workload under a CPU profile and prints the per-layer
// metrics instead. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"

	"repro/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64 // measured run length; ignored when units > 0
	units   int     // fixed number of measured units (smoke tests)
	trace   bool
	workdir string
}

// run is main without the exit, so tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all (each in its own process)")
	var o options
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 35, "how long one run measures")
	fs.IntVar(&o.units, "units", 0, "measure exactly this many units instead of -seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for campaign caches and the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	o.trace = *trace == 1
	if *name == "all" {
		return runAll(args, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %v or all)\n", *name, workloadNames())
		return 2
	}
	res, err := measure(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(stdout, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, one after
// another, so that each reports its own peak RSS.
func runAll(args []string, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for _, w := range workloads {
		// A repeated flag takes its last value.
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				return ee.ExitCode()
			}
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
	}
	return 0
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints every metric as a readable line, then the result as
// one JSON line.
func report(w io.Writer, r result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "# correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// envLine is the environment stamp printed before the metrics, in the
// shape of the repository's stats.BenchEnv.
func envLine() string {
	b, _ := json.Marshal(stats.CurrentBenchEnv()) // four plain fields never fail to encode
	return "# env " + string(b)
}
