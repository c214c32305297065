package stats

import (
	"os"
	"path/filepath"
	"reflect"
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

// TestCompareBench runs the benchmark gate's two comparisons on the
// columns BenchColumns splits: ns/op at a 25% tolerance and allocs/op
// at AllocBound.
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
	baseNs, baseAllocs := BenchColumns(base)
	curNs, curAllocs := BenchColumns(cur)
	ns := Compare(baseNs, curNs, 0.25, LowerIsBetter)
	if len(ns) != 7 {
		t.Fatalf("compared %d benchmarks, want 7 (both sides, incl. new and removed): %+v", len(ns), ns)
	}
	byName := map[string]Delta{}
	for _, d := range ns {
		byName[d.Name] = d
	}
	allocs := map[string]Delta{}
	for _, d := range Compare(baseAllocs, curAllocs, AllocBound, LowerIsBetter) {
		allocs[d.Name] = d
	}
	if d := byName["BenchmarkOnlyInBase"]; !d.Removed || d.New || d.Worse || d.Base != 5 {
		t.Fatalf("baseline-only benchmark must be Removed, carry its baseline, and never regress: %+v", d)
	}
	if d := byName["BenchmarkOnlyInCur"]; !d.New || d.Removed || d.Worse {
		t.Fatalf("current-only benchmark must be New and never regressed: %+v", d)
	}
	for _, d := range ns {
		if d.New && d.Name != "BenchmarkOnlyInCur" {
			t.Fatalf("benchmark %s wrongly marked New", d.Name)
		}
		if d.Removed && d.Name != "BenchmarkOnlyInBase" {
			t.Fatalf("benchmark %s wrongly marked Removed", d.Name)
		}
	}
	if d, a := byName["BenchmarkA"], allocs["BenchmarkA"]; d.Worse || a.Worse {
		t.Fatalf("A regressed within tolerance: %+v %+v", d, a)
	}
	if d, a := byName["BenchmarkB"], allocs["BenchmarkB"]; d.Worse || !a.Worse {
		t.Fatalf("B allocation regression missed: %+v %+v", d, a)
	}
	if d := byName["BenchmarkC"]; !d.Worse {
		t.Fatalf("C time regression missed: %+v", d)
	}
	if a, ok := allocs["BenchmarkC"]; !ok || !a.New || a.Worse {
		t.Fatalf("C's allocs/op, absent from the baseline, must be New and never regress: %+v", a)
	}
	if r := byName["BenchmarkC"].Cur / byName["BenchmarkC"].Base; r != 1.3 {
		t.Fatalf("C ratio = %v, want 1.3", r)
	}
	if a := allocs["BenchmarkD"]; a.Worse {
		t.Fatalf("D regressed within the allocation jitter slack: %+v", a)
	}
	if d, a := byName["BenchmarkE"], allocs["BenchmarkE"]; d.Worse || !a.Worse {
		t.Fatalf("E allocation regression beyond slack missed: %+v %+v", d, a)
	}
}

// TestCompareAllocBoundary pins the allocation rule at its edges: at
// AllocBound a count may exceed its baseline by ⌊base/1000⌋ and no
// more, the integer slack the gate has always used. The product form
// cur > base·1.001 would already flag 1,000 → 1,001.
func TestCompareAllocBoundary(t *testing.T) {
	for _, base := range []float64{0, 2, 999, 1000, 1500, 2000, 1_000_000} {
		slack := float64(int64(base) / 1000)
		for _, tc := range []struct {
			cur   float64
			worse bool
		}{{base + slack, false}, {base + slack + 1, true}} {
			got := Compare(map[string]float64{"x": base}, map[string]float64{"x": tc.cur}, AllocBound, LowerIsBetter)
			if len(got) != 1 || got[0].Worse != tc.worse {
				t.Errorf("allocs %v -> %v: %+v, want Worse=%v", base, tc.cur, got, tc.worse)
			}
		}
	}
}

// TestCompareDirection: the same move is a loss in one direction and a
// gain in the other, a move of exactly the bound is not Worse, also
// when the bound and values are decimals that float64 rounds (1 → 0.99
// at 0.01 is not a regression for hydrastat diff), and the margin
// scales with |base|.
func TestCompareDirection(t *testing.T) {
	for _, tc := range []struct {
		base, cur, bound float64
		dir              Direction
		worse            bool
	}{
		{1, 0.97, 0.01, HigherIsBetter, true},
		{1, 0.97, 0.05, HigherIsBetter, false},
		{1, 1.03, 0.01, HigherIsBetter, false},
		{1, 1.03, 0.01, LowerIsBetter, true},
		{1, 0.97, 0.01, LowerIsBetter, false},
		{0.5, 0.25, 0.5, HigherIsBetter, false},
		{0.5, 0.75, 0.5, LowerIsBetter, false},
		{1, 0.99, 0.01, HigherIsBetter, false},
		{1, 0.9899, 0.01, HigherIsBetter, true},
		{1, 1.01, 0.01, LowerIsBetter, false},
		{1000, 1400, 0.40, LowerIsBetter, false},
		{1000, 1400.1, 0.40, LowerIsBetter, true},
		{-2, -3, 0.25, HigherIsBetter, true},
		{-2, -2.25, 0.25, HigherIsBetter, false},
	} {
		got := Compare(map[string]float64{"x": tc.base}, map[string]float64{"x": tc.cur}, tc.bound, tc.dir)
		if got[0].Worse != tc.worse {
			t.Errorf("%v -> %v, bound %v, direction %d: Worse=%v, want %v", tc.base, tc.cur, tc.bound, tc.dir, got[0].Worse, tc.worse)
		}
	}
}

// TestCompareNewAndRemoved: names on one side only are listed in name
// order, carry their one value, and never fail, however far the value
// is from anything.
func TestCompareNewAndRemoved(t *testing.T) {
	got := Compare(map[string]float64{"b": 1, "gone": 1e9}, map[string]float64{"b": 1, "added": 1e9}, 0, LowerIsBetter)
	want := []Delta{
		{Name: "added", Cur: 1e9, New: true},
		{Name: "b", Base: 1, Cur: 1},
		{Name: "gone", Base: 1e9, Removed: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Compare = %+v, want %+v", got, want)
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	cur := map[string]BenchResult{"BenchmarkX": {N: 10, NsPerOp: 250, AllocsPerOp: 0, BytesPerOp: 0}}
	if err := WriteBenchFile(path, cur); err != nil {
		t.Fatal(err)
	}
	f, err := LoadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Benchmarks["BenchmarkX"].NsPerOp != 250 {
		t.Fatalf("benchmarks = %+v", f.Benchmarks)
	}
	if f.Env == nil {
		t.Fatal("written baseline carries no environment stamp")
	}
	if got := CurrentBenchEnv().Mismatch(*f.Env); got != "" {
		t.Fatalf("self-comparison reports mismatch: %s", got)
	}
}

// TestLoadBenchFileWithSpeedupTable pins that committed baselines that
// carry the `previous` and `speedup` tables of the removed -prev option
// (BENCH_4, BENCH_8 to BENCH_12) still load, with their benchmarks.
func TestLoadBenchFileWithSpeedupTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeTestFile(path, `{"schema":"hydra-bench-baseline/v1",
"env":{"goos":"linux","goarch":"amd64","num_cpu":2,"gomaxprocs":2},
"benchmarks":{"BenchmarkX":{"n":10,"ns_per_op":250,"bytes_per_op":0,"allocs_per_op":3}},
"previous":{"BenchmarkX":{"n":5,"ns_per_op":1000,"bytes_per_op":64,"allocs_per_op":1}},
"speedup":{"BenchmarkX":4}}`); err != nil {
		t.Fatal(err)
	}
	f, err := LoadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Benchmarks["BenchmarkX"]; got != (BenchResult{N: 10, NsPerOp: 250, AllocsPerOp: 3}) {
		t.Fatalf("benchmarks = %+v", f.Benchmarks)
	}
	if f.Env == nil || f.Env.NumCPU != 2 {
		t.Fatalf("env = %+v", f.Env)
	}
}

// TestWriteBenchFileNeverOverwrites pins the append-only convention: a
// second write to an existing baseline fails, names the file, and leaves
// the first file's content intact.
func TestWriteBenchFileNeverOverwrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := WriteBenchFile(path, map[string]BenchResult{"BenchmarkX": {N: 1, NsPerOp: 250}}); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	err = WriteBenchFile(path, map[string]BenchResult{"BenchmarkY": {N: 1, NsPerOp: 9}})
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
