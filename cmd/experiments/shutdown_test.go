//go:build !windows

package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/obsv"
)

// TestInterruptResumesIdentically is the end-to-end graceful-shutdown
// check: a real experiments process is interrupted with SIGINT mid-
// campaign and must exit 130 leaving a clean, non-empty cache
// directory; rerunning the same command must replay from that
// directory and produce a report that is — after normalization —
// bitwise identical to an uninterrupted run's.
func TestInterruptResumesIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Enough cells that the interrupt lands mid-campaign, few enough
	// that the uninterrupted reference stays cheap.
	baseArgs := func(cacheDir, report string) []string {
		return []string{
			"-par", "1", "-scale", "16", "-seed", "1",
			"-workloads", "parest,bwaves",
			"-cache-dir", cacheDir, "-json", report,
			"fig5",
		}
	}

	// Reference: one clean, uninterrupted run.
	refReport := filepath.Join(dir, "ref.json")
	ref := exec.Command(bin, baseArgs(filepath.Join(dir, "cache-ref"), refReport)...)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}

	// Interrupted run: SIGINT as soon as the first cell has landed in
	// the cache directory, so the campaign is provably mid-flight.
	cacheDir := filepath.Join(dir, "cache")
	report := filepath.Join(dir, "report.json")
	entries := func() []string {
		m, err := filepath.Glob(filepath.Join(cacheDir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var out bytes.Buffer
	interrupted := exec.Command(bin, baseArgs(cacheDir, report)...)
	interrupted.Stdout, interrupted.Stderr = &out, &out
	if err := interrupted.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for len(entries()) == 0 {
		if time.Now().After(deadline) {
			interrupted.Process.Kill() //nolint:errcheck
			t.Fatalf("no cache entry after 60s; child output:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := interrupted.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- interrupted.Wait() }()
	select {
	case <-waited:
	case <-time.After(60 * time.Second):
		interrupted.Process.Kill() //nolint:errcheck
		t.Fatalf("child ignored SIGINT for 60s; output:\n%s", out.String())
	}
	if code := interrupted.ProcessState.ExitCode(); code != cli.ExitInterrupt {
		t.Fatalf("interrupted run exited %d, want %d; output:\n%s", code, cli.ExitInterrupt, out.String())
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Errorf("interrupted run did not say so; output:\n%s", out.String())
	}
	if _, err := os.Stat(report); !os.IsNotExist(err) {
		t.Errorf("interrupted run left a report file (stat err %v); reports must be all-or-nothing", err)
	}

	// The surviving cache must be non-empty, and every entry in it must
	// read back whole: a lookup quarantines a torn entry.
	cache, err := harness.NewCellCache(cacheDir)
	if err != nil {
		t.Fatalf("cache after SIGINT: %v", err)
	}
	cache.Decode = exp.DecodeResult
	survivors := entries()
	if len(survivors) == 0 {
		t.Fatal("cache after SIGINT holds no cells")
	}
	for _, name := range survivors {
		if _, ok := cache.Lookup(strings.TrimSuffix(filepath.Base(name), ".json")); !ok {
			t.Errorf("cache entry %s after SIGINT does not replay", filepath.Base(name))
		}
	}
	if s := cache.Stats(); s.CorruptDropped != 0 || s.Quarantined != 0 {
		t.Fatalf("cache after SIGINT held corrupt entries: %+v", s)
	}

	// Resume: same command, must replay from the cache and finish.
	resume := exec.Command(bin, baseArgs(cacheDir, report)...)
	if resumeOut, err := resume.CombinedOutput(); err != nil {
		t.Fatalf("resume run: %v\n%s", err, resumeOut)
	}
	f, err := obsv.ReadReportFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if hits := f.Reports[0].Metrics["cache.disk_hits"].Value; hits < 1 {
		t.Errorf("resume run replayed %v cells from the cache directory, want at least 1", hits)
	}

	// The resumed report must match the uninterrupted reference exactly
	// once operational noise (timestamps, cell provenance, cache
	// traffic) is normalized away.
	want := normalizedReport(t, refReport)
	got := normalizedReport(t, report)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted reference:\n%s\nvs\n%s", got, want)
	}
}

func normalizedReport(t *testing.T, path string) []byte {
	t.Helper()
	f, err := obsv.ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Normalize()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
