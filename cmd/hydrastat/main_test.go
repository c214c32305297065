package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/obsv"
)

// usageError is the dynamic type of the errors cli.Main exits 2 for.
var usageError = reflect.TypeOf(cli.Usagef(""))

// writeFig5 writes a report file whose fig5 target has the given
// hydra geomean on the SPEC suite, and returns its path.
func writeFig5(t *testing.T, geomean float64) string {
	t.Helper()
	rep := obsv.NewReport("experiments", "fig5")
	rep.Schemes = []string{"hydra"}
	rep.Geomeans = map[string]map[string]float64{"hydra": {"SPEC": geomean}}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := obsv.NewReportFile(rep).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffExitContract: diff fails (exit 1) on a geomean drop beyond
// -tolerance and passes a drop within it.
func TestDiffExitContract(t *testing.T) {
	ctx := context.Background()
	a, b := writeFig5(t, 1.00), writeFig5(t, 0.97)
	err := run(ctx, []string{"diff", "-tolerance", "0.01", a, b})
	if err == nil || reflect.TypeOf(err) == usageError {
		t.Errorf("3%% drop at 1%% tolerance: run returned %v, want a regression error", err)
	}
	if err := run(ctx, []string{"diff", "-tolerance", "0.05", a, b}); err != nil {
		t.Errorf("3%% drop at 5%% tolerance: run returned %v, want nil", err)
	}
}

// TestWrongArgumentCountIsUsageError: a subcommand given the wrong
// number of report files is a usage error (exit 2), as is no
// subcommand at all.
func TestWrongArgumentCountIsUsageError(t *testing.T) {
	a := writeFig5(t, 1)
	for _, args := range [][]string{
		nil,
		{"diff", a},
		{"diff", a, a, a},
		{"summarize"},
	} {
		if err := run(context.Background(), args); reflect.TypeOf(err) != usageError {
			t.Errorf("%q: run returned %v, want a usage error", args, err)
		}
	}
}

// benchRun runs hydrastat with stdin reading text, and returns what it
// printed and the error run returned.
func benchRun(t *testing.T, text string, args ...string) (string, error) {
	t.Helper()
	dir := t.TempDir()
	in, out := filepath.Join(dir, "stdin"), filepath.Join(dir, "stdout")
	if err := os.WriteFile(in, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	stdin, err := os.Open(in)
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	stdout, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	oldIn, oldOut := os.Stdin, os.Stdout
	os.Stdin, os.Stdout = stdin, stdout
	err = run(context.Background(), args)
	os.Stdin, os.Stdout = oldIn, oldOut
	printed, rerr := os.ReadFile(out)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(printed), err
}

const benchLines = `BenchmarkFullSystemHydra-2   	      72	  15062363 ns/op	  1234 B/op	     338 allocs/op
BenchmarkRCCPath-2           	70000000	        17.5 ns/op	     0 B/op	       0 allocs/op
BenchmarkFigure5-2           	       1	2000000000 ns/op	 99999 B/op	 1000000 allocs/op
`

// writeBaseline records benchLines as a baseline and returns its path.
func writeBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if _, err := benchRun(t, benchLines, "bench", "-write", path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBenchCompareExitContract: a run equal to its baseline passes, a
// slowdown beyond -tolerance or one more allocation per op fails
// (exit 1, not a usage error), and a benchmark only in the run is
// listed as new without failing. A count of a million allocs/op may
// grow by its 0.1% slack, 1,000, and no more.
func TestBenchCompareExitContract(t *testing.T) {
	base := writeBaseline(t)
	if out, err := benchRun(t, benchLines+"BenchmarkAdded-2 10 5 ns/op 0 B/op 0 allocs/op\n", "bench", "-compare", base); err != nil || !strings.Contains(out, "BenchmarkAdded") || !strings.Contains(out, "new (not in baseline)") {
		t.Fatalf("unchanged run: err = %v, output:\n%s", err, out)
	}
	if out, err := benchRun(t, strings.Replace(benchLines, " 1000000 allocs/op", " 1001000 allocs/op", 1), "bench", "-compare", base); err != nil {
		t.Fatalf("allocs/op within the slack: err = %v, output:\n%s", err, out)
	}
	for name, text := range map[string]string{
		"slower":       strings.Replace(benchLines, "17.5 ns/op", "35.0 ns/op", 1),
		"allocate":     strings.Replace(benchLines, " 0 allocs/op", " 1 allocs/op", 1),
		"beyond slack": strings.Replace(benchLines, " 1000000 allocs/op", " 1001001 allocs/op", 1),
	} {
		out, err := benchRun(t, text, "bench", "-compare", base, "-tolerance", "0.40")
		if err == nil || reflect.TypeOf(err) == usageError || !strings.Contains(out, "REGRESSED") {
			t.Errorf("%s: err = %v, want a regression error; output:\n%s", name, err, out)
		}
	}
}

// TestBenchCompareNeedsBenchmem: a run without -benchmem reports no
// allocs/op, and against a baseline that has them it fails with a
// reason naming -benchmem instead of skipping the allocation rule.
func TestBenchCompareNeedsBenchmem(t *testing.T) {
	base := writeBaseline(t)
	out, err := benchRun(t, "BenchmarkFullSystemHydra-2 72 15062363 ns/op\n", "bench", "-compare", base)
	if err == nil || reflect.TypeOf(err) == usageError || !strings.Contains(out, "-benchmem") {
		t.Fatalf("run without -benchmem: err = %v, want a regression naming -benchmem; output:\n%s", err, out)
	}
}

// TestBenchModesAreUsageErrors: bench takes exactly one of -write and
// -compare, and the removed -prev is an unknown flag.
func TestBenchModesAreUsageErrors(t *testing.T) {
	base := writeBaseline(t)
	for _, args := range [][]string{
		{"bench"},
		{"bench", "-write", filepath.Join(t.TempDir(), "new.json"), "-compare", base},
		{"bench", "-compare", base, "-prev", "x"},
	} {
		if _, err := benchRun(t, benchLines, args...); reflect.TypeOf(err) != usageError {
			t.Errorf("%q: run returned %v, want a usage error", args, err)
		}
	}
}

// TestBenchWriteRefusesExistingFile: baselines are append-only, so
// -write onto an existing file fails and leaves it as it was.
func TestBenchWriteRefusesExistingFile(t *testing.T) {
	base := writeBaseline(t)
	before, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := benchRun(t, "BenchmarkOther-2 1 9 ns/op\n", "bench", "-write", base); err == nil || reflect.TypeOf(err) == usageError {
		t.Errorf("-write onto an existing baseline: run returned %v, want a runtime error", err)
	}
	if after, _ := os.ReadFile(base); string(after) != string(before) {
		t.Errorf("refused write changed the baseline:\n%s", after)
	}
}
