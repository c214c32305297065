package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRecordThenVerify records a two-core trace and verifies the
// directory it wrote: one readable core{i}.trc per core.
func TestRecordThenVerify(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trc")
	ctx := context.Background()
	if err := run(ctx, []string{"-workload", "leela", "-scale", "4096", "-cores", "2", "-out", dir}); err != nil {
		t.Fatalf("record: %v", err)
	}
	for _, name := range []string{"core0.trc", "core1.trc"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v (want a non-empty file)", name, err)
		}
	}
	if err := run(ctx, []string{"-verify", dir}); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestListenIsUnknown pins that tracegen has no telemetry server.
func TestListenIsUnknown(t *testing.T) {
	err := run(context.Background(), []string{"-listen", ":0", "-verify", t.TempDir()})
	if want := "flag provided but not defined: -listen"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("run returned %v, want an error containing %q", err, want)
	}
}
