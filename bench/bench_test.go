package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json this
// test holds the program to: the names and units of its metrics.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runBench runs the benchmark in-process and decodes the result line.
func runBench(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "-workdir", t.TempDir())
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d\n%s%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return r, out.String()
}

// smokeUnits keeps every workload to a few seconds.
var smokeUnits = map[string]int{
	"cell-hydra-parest":  2,
	"cell-baseline-bc_t": 2,
	"campaign-cold":      1,
	"campaign-warm":      3,
}

// TestSmoke runs every workload, untraced and traced, at a tiny length
// and checks that it prints exactly the metrics BENCHMARK.json names,
// with their units, and that every output matched its golden digest.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, w := range b.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
	}
	for _, w := range workloads {
		n, ok := smokeUnits[w.name]
		if !ok {
			t.Fatalf("no smoke length for workload %q", w.name)
		}
		for trace, named := range map[string][]metricSpec{"0": b.EndToEnd, "1": b.PerLayer} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				r, out := runBench(t, "-workload", w.name, "-seed", "1", "-units", fmt.Sprint(n), "-trace", trace)
				if !r.Correct || r.Failed != 0 || r.Attempted < n {
					t.Errorf("correct=%v failed=%d attempted=%d\n%s", r.Correct, r.Failed, r.Attempted, out)
				}
				want := map[string]string{}
				for _, m := range named {
					want[m.Name] = m.Unit
				}
				for name, unit := range want {
					if got, ok := r.Metrics[name]; !ok {
						t.Errorf("metric %s not printed", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range r.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s printed but not named in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

func TestCheckerCountsDigestMismatches(t *testing.T) {
	golden, err := newChecker("campaign-cold", 1)
	if err != nil {
		t.Fatal(err)
	}
	golden.check(unitResult{cells: 32, digest: "not-the-golden-digest"})
	other, err := newChecker("campaign-cold", 7)
	if err != nil {
		t.Fatal(err)
	}
	other.check(unitResult{cells: 32, digest: "a"})
	other.check(unitResult{cells: 32, digest: "a"})
	other.check(unitResult{cells: 32, digest: "b", failed: 2})
	for _, c := range []struct {
		name              string
		got               *checker
		attempted, failed int
	}{{"golden seed", golden, 32, 1}, {"other seed", other, 96, 3}} {
		if c.got.attempted != c.attempted || c.got.failed != c.failed {
			t.Errorf("%s: attempted=%d failed=%d, want %d and %d", c.name, c.got.attempted, c.got.failed, c.attempted, c.failed)
		}
	}
}

// TestOtherSeedRepeatsItsOwnDigest checks that a seed without a golden
// digest still changes the inputs and that every cell of the run
// reproduces the first cell's output.
func TestOtherSeedRepeatsItsOwnDigest(t *testing.T) {
	r, out := runBench(t, "-workload", "cell-hydra-parest", "-seed", "7", "-units", "2")
	if !r.Correct || r.Failed != 0 {
		t.Fatalf("seed 7: correct=%v failed=%d\n%s", r.Correct, r.Failed, out)
	}
	c, err := newChecker("cell-hydra-parest", 1)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "# digest "+c.ref+"\n") {
		t.Errorf("seed 7 reproduced seed 1's golden digest %s: the seed does not reach the inputs", c.ref)
	}
}
