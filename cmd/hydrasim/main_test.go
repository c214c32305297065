package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/obsv"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceKinds runs hydrasim with args plus -trace into a temporary file
// and returns the trace's lines and its count of each event kind.
func traceKinds(t *testing.T, args ...string) ([][]byte, map[string]int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := run(context.Background(), append(args, "-trace", path)); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	kinds := map[string]int{}
	for _, line := range lines {
		var e struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		kinds[e.Kind]++
	}
	return lines, kinds
}

// TestTracedRunWritesEventsAndReport runs one Hydra cell with a tracer
// attached, the only end-to-end check of the activation and mitigation
// (sim), refresh (memsim) and GCT-saturation (core) emit sites, and
// checks the run report written beside the trace.
func TestTracedRunWritesEventsAndReport(t *testing.T) {
	report := filepath.Join(t.TempDir(), "r.json")
	_, kinds := traceKinds(t, "-workload", "parest", "-scale", "64", "-json", report)
	for _, k := range []string{"activate", "mitigate", "refresh", "gct-saturate"} {
		if kinds[k] == 0 {
			t.Errorf("trace holds no %q event: %v", k, kinds)
		}
	}
	f, err := obsv.ReadReportFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Reports) != 1 || len(f.Reports[0].Workloads) != 1 {
		t.Fatalf("report file holds %d reports, want 1 with one workload row", len(f.Reports))
	}
	if norm := f.Reports[0].Workloads[0].NormPerf["hydra"]; norm <= 0 || norm > 1 {
		t.Errorf("norm_perf.hydra = %v, want (0, 1]", norm)
	}
}

// TestTraceCapBoundsTrace: the ring keeps exactly -trace-cap
// events of a run that emits far more.
func TestTraceCapBoundsTrace(t *testing.T) {
	lines, _ := traceKinds(t, "-workload", "parest", "-scale", "64", "-baseline=false", "-trace-cap", "8")
	if len(lines) != 8 {
		t.Fatalf("trace holds %d lines, want 8", len(lines))
	}
}

func TestWorkloadList(t *testing.T) {
	if err := run(context.Background(), []string{"-workload", "list"}); err != nil {
		t.Fatalf("-workload list: %v", err)
	}
}

// TestTraceDirReplaysCoreByIndex: with 12 recorded cores, core i
// replays core{i}.trc; a name sort would hand core 2 core10.trc.
func TestTraceDirReplaysCoreByIndex(t *testing.T) {
	const cores = 12
	dir := t.TempDir()
	for i := 0; i < cores; i++ {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("core%d.trc", i)))
		if err != nil {
			t.Fatal(err)
		}
		w, err := trace.NewWriter(f)
		if err == nil {
			err = w.Write(workload.Request{Line: uint64(i)})
		}
		if err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	srcs, closers, err := loadTraces(dir)
	for _, c := range closers {
		defer c.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != cores {
		t.Fatalf("loaded %d sources, want %d", len(srcs), cores)
	}
	for i, src := range srcs {
		if r, ok := src.Next(); !ok || r.Line != uint64(i) {
			t.Errorf("core %d replays the record tagged %d (ok=%v), want %d", i, r.Line, ok, i)
		}
	}
}

// TestListenIsUnknown pins that hydrasim has no telemetry server: a
// one-shot run's metrics go to -json, its profiles to -cpuprofile and
// -memprofile.
func TestListenIsUnknown(t *testing.T) {
	err := run(context.Background(), []string{"-listen", ":0", "-workload", "list"})
	if want := "flag provided but not defined: -listen"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("run returned %v, want an error containing %q", err, want)
	}
}

// TestUnknownTrackerIsUsageError requires an unknown -tracker, a
// functional-only one and an unknown -mitigation each to exit with the
// usage code before anything runs.
func TestUnknownTrackerIsUsageError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "hydrasim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-tracker", "bogus"},
		{"-tracker", "twice"},
		{"-mitigation", "bogus"},
	} {
		out, err := exec.Command(bin, append(args, "-baseline=false", "-scale", "4096")...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != cli.ExitUsage {
			t.Errorf("%v: exit = %v, want code %d\n%s", args, err, cli.ExitUsage, out)
		}
	}
}
