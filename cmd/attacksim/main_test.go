package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cli"
)

// buildAttacksim compiles the command into a temporary directory, so the
// tests see the real exit codes that cli.Main produces.
func buildAttacksim(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "attacksim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// verdicts runs the binary and returns, per tracker in output order, the
// patterns it printed and whether each was SAFE.
func verdicts(t *testing.T, bin string, args ...string) (trackers []string, patterns map[string][]string, safe map[string][]bool) {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("attacksim %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	patterns, safe = map[string][]string{}, map[string][]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[1] != "vs" {
			continue
		}
		pattern, tracker := f[0], f[2]
		if _, seen := patterns[tracker]; !seen {
			trackers = append(trackers, tracker)
		}
		patterns[tracker] = append(patterns[tracker], pattern)
		safe[tracker] = append(safe[tracker], strings.HasSuffix(line, " SAFE"))
	}
	return trackers, patterns, safe
}

var wantPatterns = []string{"single-sided", "double-sided", "19-sided", "half-double", "thrash"}

// TestAllTrackersReportEveryPattern runs the default tracker set and
// requires one verdict per tracker and pattern, with Hydra SAFE on every
// pattern. It pins the tracker set and construction behind "all".
func TestAllTrackersReportEveryPattern(t *testing.T) {
	bin := buildAttacksim(t)
	trackers, patterns, safe := verdicts(t, bin, "-acts", "20000", "-windows", "1")
	want := []string{"hydra", "graphene", "ocpr", "para", "twice", "cat", "prohit", "mrloc", "start", "mint", "dapper"}
	if !reflect.DeepEqual(trackers, want) {
		t.Fatalf("trackers = %v, want %v", trackers, want)
	}
	for _, tr := range trackers {
		if !reflect.DeepEqual(patterns[tr], wantPatterns) {
			t.Errorf("%s patterns = %v, want %v", tr, patterns[tr], wantPatterns)
		}
	}
	for i, ok := range safe["hydra"] {
		if !ok {
			t.Errorf("hydra BROKEN by %s", patterns["hydra"][i])
		}
	}

	// A scheme outside "all" is still accepted by name.
	trackers, patterns, _ = verdicts(t, bin, "-tracker", "cra", "-acts", "20000", "-windows", "1")
	if !reflect.DeepEqual(trackers, []string{"cra"}) || !reflect.DeepEqual(patterns["cra"], wantPatterns) {
		t.Fatalf("-tracker cra: trackers %v, patterns %v", trackers, patterns)
	}
}

// TestUnknownTrackerIsUsageError requires an unknown -tracker name to
// exit with the usage code.
func TestUnknownTrackerIsUsageError(t *testing.T) {
	bin := buildAttacksim(t)
	out, err := exec.Command(bin, "-tracker", "nosuch", "-acts", "1000").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != cli.ExitUsage {
		t.Fatalf("exit = %v, want code %d\n%s", err, cli.ExitUsage, out)
	}
}

// TestListenIsUnknown pins that attacksim has no telemetry server.
func TestListenIsUnknown(t *testing.T) {
	err := run(context.Background(), []string{"-listen", ":0", "-tracker", "hydra", "-acts", "1000", "-windows", "1"})
	if want := "flag provided but not defined: -listen"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("run returned %v, want an error containing %q", err, want)
	}
}
