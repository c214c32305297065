// Package testutil holds the shared test scaffolding. Must builds a
// value whose constructor returns an error the test knows cannot
// happen. Intensity is the test-tier knob: expensive suites —
// the crash-point sweep, fuzz-style property loops, soak runs — scale
// their iteration counts through Intensity instead of hardcoding them,
// so one environment variable moves the whole tree between a fast
// pre-commit tier and a thorough soak tier:
//
//	TEST_INTENSITY=quick    (default) CI/pre-commit sizes
//	TEST_INTENSITY=thorough `make soak` sizes, under -race
package testutil

import (
	"fmt"
	"os"
	"testing"
)

// Intensity is the test-effort tier selected by TEST_INTENSITY.
type Intensity int

const (
	// Quick is the default tier: every test finishes in seconds, suitable
	// for pre-commit and CI (`make test`, `make check`).
	Quick Intensity = iota
	// Thorough is the soak tier (`make soak`): full crash-point coverage,
	// long property-test loops, larger matrices.
	Thorough
)

func (i Intensity) String() string {
	if i == Thorough {
		return "thorough"
	}
	return "quick"
}

// FromEnv reads TEST_INTENSITY. Unset or empty means Quick; an
// unrecognized value fails the test rather than silently running the
// wrong tier.
func FromEnv(tb testing.TB) Intensity {
	tb.Helper()
	switch v := os.Getenv("TEST_INTENSITY"); v {
	case "", "quick":
		return Quick
	case "thorough":
		return Thorough
	default:
		tb.Fatalf("TEST_INTENSITY=%q: want quick or thorough", v)
		return Quick
	}
}

// Pick returns the value for the active tier — the idiom for sizing a
// loop: testutil.Pick(tb, 50, 2000) iterations.
func Pick[T any](tb testing.TB, quick, thorough T) T {
	tb.Helper()
	if FromEnv(tb) == Thorough {
		return thorough
	}
	return quick
}

// Logf records the chosen size so a soak log shows what actually ran.
func Logf(tb testing.TB, format string, args ...any) {
	tb.Helper()
	tb.Logf("[%s] %s", FromEnv(tb), fmt.Sprintf(format, args...))
}

// Must returns v, panicking if err is non-nil. Tests wrap a constructor
// whose arguments they know are valid in it:
// testutil.Must(track.NewGraphene(geom, 500)).
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
