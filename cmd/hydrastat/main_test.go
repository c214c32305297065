package main

import (
	"context"
	"path/filepath"
	"reflect"
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
