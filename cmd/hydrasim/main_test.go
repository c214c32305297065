package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obsv"
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
