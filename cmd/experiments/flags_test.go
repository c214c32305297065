package main

import (
	"context"
	"strings"
	"testing"
)

// TestRemovedFlagsAreUnknown pins that the retry, recorded-cost and
// cache-budget flags are gone: each is refused as an unknown flag
// before any cell runs.
func TestRemovedFlagsAreUnknown(t *testing.T) {
	for _, args := range [][]string{
		{"-retries", "1"},
		{"-cache-max-bytes", "1"},
		{"-costs-from", "x"},
	} {
		err := run(context.Background(), append(args, "table1"))
		if want := "flag provided but not defined: " + args[0]; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: run returned %v, want an error containing %q", args[0], err, want)
		}
	}
}
