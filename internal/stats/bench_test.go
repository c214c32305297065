package stats

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTestFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/memsim
cpu: some CPU @ 3.20GHz
BenchmarkChannelThroughput-8 	 2274300	      1084 ns/op	     102 B/op	       1 allocs/op
BenchmarkRowHitStream      	 1491654	      1381.5 ns/op
PASS
ok  	repro/internal/memsim	4.861s
`

func TestParseBench(t *testing.T) {
	got, err := ParseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(got), got)
	}
	ct, ok := got["BenchmarkChannelThroughput"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %+v", got)
	}
	if ct.N != 2274300 || ct.NsPerOp != 1084 || ct.BytesPerOp != 102 || ct.AllocsPerOp != 1 {
		t.Fatalf("ChannelThroughput = %+v", ct)
	}
	rh := got["BenchmarkRowHitStream"]
	if rh.NsPerOp != 1381.5 {
		t.Fatalf("RowHitStream ns/op = %v", rh.NsPerOp)
	}
	// No -benchmem: allocation columns marked absent.
	if rh.BytesPerOp != -1 || rh.AllocsPerOp != -1 {
		t.Fatalf("RowHitStream allocs = %+v, want absent (-1)", rh)
	}
}

// TestParseBenchRepeatsReduceToMedian pins that `go test -count N`
// output gates on the median of each column, not on the last run.
func TestParseBenchRepeatsReduceToMedian(t *testing.T) {
	out := `BenchmarkX-2   	 1000	       300 ns/op	      64 B/op	       3 allocs/op
BenchmarkX-2   	 3000	       100 ns/op	      32 B/op	       1 allocs/op
BenchmarkX-2   	 2000	       900 ns/op	      96 B/op	       2 allocs/op
`
	got, err := ParseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := BenchResult{N: 2000, NsPerOp: 300, BytesPerOp: 64, AllocsPerOp: 2}
	if got["BenchmarkX"] != want {
		t.Fatalf("repeated runs parsed as %+v, want the per-column median %+v", got["BenchmarkX"], want)
	}
}

func TestCompareBench(t *testing.T) {
	base := map[string]BenchResult{
		"BenchmarkA":          {NsPerOp: 1000, AllocsPerOp: 0},
		"BenchmarkB":          {NsPerOp: 1000, AllocsPerOp: 2},
		"BenchmarkC":          {NsPerOp: 1000, AllocsPerOp: -1},
		"BenchmarkD":          {NsPerOp: 1000, AllocsPerOp: 1_000_000},
		"BenchmarkE":          {NsPerOp: 1000, AllocsPerOp: 1_000_000},
		"BenchmarkOnlyInBase": {NsPerOp: 5},
	}
	cur := map[string]BenchResult{
		"BenchmarkA":         {NsPerOp: 1100, AllocsPerOp: 0},         // +10%: inside tolerance
		"BenchmarkB":         {NsPerOp: 900, AllocsPerOp: 3},          // faster but allocates more
		"BenchmarkC":         {NsPerOp: 1300, AllocsPerOp: 0},         // +30%: over tolerance
		"BenchmarkD":         {NsPerOp: 1000, AllocsPerOp: 1_000_900}, // within 0.1% jitter slack
		"BenchmarkE":         {NsPerOp: 1000, AllocsPerOp: 1_002_000}, // beyond the slack
		"BenchmarkOnlyInCur": {NsPerOp: 5},
	}
	deltas := CompareBench(base, cur, 0.25)
	if len(deltas) != 7 {
		t.Fatalf("compared %d benchmarks, want 7 (both sides, incl. new and removed): %+v", len(deltas), deltas)
	}
	byName := map[string]BenchDelta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["BenchmarkOnlyInBase"]; !d.Removed || d.New || d.Regressed || d.Baseline.NsPerOp != 5 {
		t.Fatalf("baseline-only benchmark must be Removed, carry its baseline, and never regress: %+v", d)
	}
	if d := byName["BenchmarkOnlyInCur"]; !d.New || d.Removed || d.Regressed {
		t.Fatalf("current-only benchmark must be New and never regressed: %+v", d)
	}
	for _, d := range deltas {
		if d.New && d.Name != "BenchmarkOnlyInCur" {
			t.Fatalf("benchmark %s wrongly marked New", d.Name)
		}
		if d.Removed && d.Name != "BenchmarkOnlyInBase" {
			t.Fatalf("benchmark %s wrongly marked Removed", d.Name)
		}
	}
	if d := byName["BenchmarkA"]; d.Regressed {
		t.Fatalf("A regressed within tolerance: %+v", d)
	}
	if d := byName["BenchmarkB"]; !d.Regressed || !strings.Contains(d.Reason, "allocs") {
		t.Fatalf("B allocation regression missed: %+v", d)
	}
	if d := byName["BenchmarkC"]; !d.Regressed || !strings.Contains(d.Reason, "ns/op") {
		t.Fatalf("C time regression missed: %+v", d)
	}
	if r := byName["BenchmarkC"].Ratio; r != 1.3 {
		t.Fatalf("C ratio = %v, want 1.3", r)
	}
	if d := byName["BenchmarkD"]; d.Regressed {
		t.Fatalf("D regressed within the allocation jitter slack: %+v", d)
	}
	if d := byName["BenchmarkE"]; !d.Regressed || !strings.Contains(d.Reason, "allocs") {
		t.Fatalf("E allocation regression beyond slack missed: %+v", d)
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	cur := map[string]BenchResult{"BenchmarkX": {N: 10, NsPerOp: 250, AllocsPerOp: 0, BytesPerOp: 0}}
	prev := map[string]BenchResult{"BenchmarkX": {N: 5, NsPerOp: 1000, AllocsPerOp: 1, BytesPerOp: 64}}
	if err := WriteBenchFile(path, cur, prev); err != nil {
		t.Fatal(err)
	}
	f, err := LoadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Benchmarks["BenchmarkX"].NsPerOp != 250 {
		t.Fatalf("benchmarks = %+v", f.Benchmarks)
	}
	if f.Previous["BenchmarkX"].NsPerOp != 1000 {
		t.Fatalf("previous = %+v", f.Previous)
	}
	if s := f.Speedup["BenchmarkX"]; s != 4 {
		t.Fatalf("speedup = %v, want 4", s)
	}
	if f.Env == nil {
		t.Fatal("written baseline carries no environment stamp")
	}
	if got := CurrentBenchEnv().Mismatch(*f.Env); got != "" {
		t.Fatalf("self-comparison reports mismatch: %s", got)
	}
}

// TestWriteBenchFileNeverOverwrites pins the append-only convention: a
// second write to an existing baseline fails, names the file, and leaves
// the first file's content intact.
func TestWriteBenchFileNeverOverwrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := WriteBenchFile(path, map[string]BenchResult{"BenchmarkX": {N: 1, NsPerOp: 250}}, nil); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	err = WriteBenchFile(path, map[string]BenchResult{"BenchmarkY": {N: 1, NsPerOp: 9}}, nil)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("second write: err = %v, want an error naming %s", err, path)
	}
	if again, _ := os.ReadFile(path); string(again) != string(first) {
		t.Fatalf("refused write changed the file:\nbefore: %s\nafter:  %s", first, again)
	}
}

func TestBenchEnvMismatch(t *testing.T) {
	self := CurrentBenchEnv()
	cases := map[string]func(*BenchEnv){
		"GOOS":       func(e *BenchEnv) { e.GOOS += "x" },
		"GOARCH":     func(e *BenchEnv) { e.GOARCH += "x" },
		"NumCPU":     func(e *BenchEnv) { e.NumCPU++ },
		"GOMAXPROCS": func(e *BenchEnv) { e.GOMAXPROCS++ },
	}
	for name, mutate := range cases {
		base := self
		mutate(&base)
		if got := self.Mismatch(base); got == "" {
			t.Errorf("differing %s not reported as a mismatch", name)
		}
	}
}

// TestLoadBenchFileWithoutEnv pins back-compat: baselines written
// before the environment stamp load fine with a nil Env, which callers
// treat as "no environment check possible".
func TestLoadBenchFileWithoutEnv(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeTestFile(path, `{"schema":"hydra-bench-baseline/v1","benchmarks":{"BenchmarkX":{"n":1,"ns_per_op":10,"bytes_per_op":-1,"allocs_per_op":-1}}}`); err != nil {
		t.Fatal(err)
	}
	f, err := LoadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Env != nil {
		t.Fatalf("env = %+v, want nil for a pre-stamp baseline", f.Env)
	}
}

func TestLoadBenchFileRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeTestFile(path, `{"schema":"other/v9","benchmarks":{}}`); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBenchFile(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}
