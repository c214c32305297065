// Package testutil holds the shared test scaffolding. Must builds a
// value whose constructor returns an error the test knows cannot
// happen. ParseProm checks and reads a Prometheus text exposition.
// Intensity is the test-tier knob: expensive suites —
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
	"strconv"
	"strings"
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

// ParseProm validates Prometheus text-exposition lines: every
// non-comment line must be `name{labels} value` or `name value` with a
// legal metric name and a parseable float. It returns the samples
// keyed by series (the name with its labels).
func ParseProm(tb testing.TB, body string) map[string]float64 {
	tb.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			tb.Fatalf("malformed exposition line %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				tb.Fatalf("unterminated labels in %q", line)
			}
			name = series[:i]
		}
		for j, r := range name {
			ok := r == '_' || r == ':' ||
				(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
				(r >= '0' && r <= '9' && j > 0)
			if !ok {
				tb.Fatalf("illegal metric name %q in line %q", name, line)
			}
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			tb.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[series] = v
	}
	return samples
}
