package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryAccumulatesAndSnapshots(t *testing.T) {
	r := NewRegistry()
	r.Count("a.x", 3)
	r.Count("a.x", 4) // same name accumulates
	r.Gauge("a.g", 1.5)
	h := NewHist(1, 2, 4)
	h.Observe(3)
	r.Histogram("a.h", h)

	m := r.Snapshot()
	if got := m.Counter("a.x"); got != 7 {
		t.Fatalf("counter a.x = %d, want 7", got)
	}
	if m["a.g"].Value != 1.5 || m["a.g"].Type != TypeGauge {
		t.Fatalf("gauge a.g = %+v", m["a.g"])
	}
	if m["a.h"].Hist == nil || m["a.h"].Hist.N != 1 {
		t.Fatalf("hist a.h = %+v", m["a.h"])
	}
	// The registered histogram is a copy: mutating the source must not
	// change the snapshot.
	h.Observe(1)
	if m["a.h"].Hist.N != 1 {
		t.Fatal("registry histogram aliases the source")
	}
	if names := m.Names(); names[0] != "a.g" || len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
}

func TestMetricsMerge(t *testing.T) {
	a := Metrics{}
	h1 := NewHist(1, 2)
	h1.Observe(1)
	a.Merge(Metrics{
		"c": {Type: TypeCounter, Value: 2},
		"g": {Type: TypeGauge, Value: 5},
		"h": {Type: TypeHistogram, Hist: &h1},
	})
	h2 := NewHist(1, 2)
	h2.Observe(2)
	b := Metrics{
		"c": {Type: TypeCounter, Value: 3},
		"g": {Type: TypeGauge, Value: 4},
		"h": {Type: TypeHistogram, Hist: &h2},
	}
	a.Merge(b)
	if a.Counter("c") != 5 {
		t.Errorf("merged counter = %d, want 5", a.Counter("c"))
	}
	if a["g"].Value != 5 { // gauges keep the max
		t.Errorf("merged gauge = %g, want 5", a["g"].Value)
	}
	if a["h"].Hist.N != 2 || a["h"].Hist.Sum != 3 {
		t.Errorf("merged hist = %+v", a["h"].Hist)
	}
	// Merge must not mutate its argument.
	if b["h"].Hist.N != 1 {
		t.Error("merge mutated the argument histogram")
	}
}

func TestHistObserveBucketsAndMerge(t *testing.T) {
	h := NewHist(PowersOfTwo(8)...) // 0,1,2,4,8 + overflow
	for _, v := range []int64{0, 1, 3, 8, 100} {
		h.Observe(v)
	}
	want := []int64{1, 1, 0, 1, 1, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.N != 5 || h.Max != 100 || h.Sum != 112 {
		t.Fatalf("summary: %+v", h)
	}
	var m Hist // zero value merges by adopting the other's shape
	m.Merge(h)
	m.Merge(h)
	if m.N != 10 || m.Counts[5] != 2 {
		t.Fatalf("merged: %+v", m)
	}
	if !strings.Contains(h.String(), "n=5") {
		t.Errorf("String() = %q", h.String())
	}
}

func TestHistMergeMismatchedBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched bounds")
		}
	}()
	a, b := NewHist(1, 2), NewHist(1, 3)
	a.Observe(1)
	b.Observe(1)
	a.Merge(b)
}

func TestTracerRingWrapsAndDrops(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 7; i++ {
		tr.Emit(Event{Cycle: int64(i), Kind: EvActivate, Row: uint32(i)})
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Cycle != int64(3+i) {
			t.Fatalf("event %d cycle = %d, want %d (oldest dropped first)", i, e.Cycle, 3+i)
		}
	}
	if tr.Total() != 7 || tr.Dropped() != 3 {
		t.Fatalf("total=%d dropped=%d", tr.Total(), tr.Dropped())
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Cycle: 1}) // must not panic
	if tr.Enabled() || tr.Total() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer should report nothing")
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit(Event{Cycle: int64(i)})
			}
		}()
	}
	wg.Wait()
	if tr.Total() != 800 {
		t.Fatalf("total = %d, want 800", tr.Total())
	}
}

func TestTracerWriteJSONL(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(Event{Cycle: 10, Kind: EvMitigate, Row: 42, Aux: 1})
	tr.Emit(Event{Cycle: 20, Kind: EvWindowReset})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["kind"] != "mitigate" || first["row"] != float64(42) {
		t.Fatalf("first line = %v", first)
	}
	// A zero Aux is omitted from the wire form.
	if want := `{"cycle":20,"kind":"window-reset","row":0}`; lines[1] != want {
		t.Fatalf("second line = %q, want %q", lines[1], want)
	}
}

func TestReportValidate(t *testing.T) {
	r := NewReport("experiments", "fig5")
	if err := r.Validate(); err != nil {
		t.Fatalf("fresh report invalid: %v", err)
	}
	r.Workloads = []WorkloadReport{{Name: "parest", NormPerf: map[string]float64{"hydra": 0.99}}}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	r.Workloads[0].NormPerf["hydra"] = -1
	if err := r.Validate(); err == nil {
		t.Fatal("negative norm_perf must fail validation")
	}

	bad := NewReport("", "fig5")
	if err := bad.Validate(); err == nil {
		t.Fatal("missing tool must fail validation")
	}
	if err := (&Report{}).Validate(); err == nil {
		t.Fatal("zero report must fail validation")
	}
}

func TestReportFileRoundTrip(t *testing.T) {
	rep := NewReport("experiments", "fig5")
	rep.Metrics = Metrics{"sim.cycles": {Type: TypeCounter, Value: 123}}
	f := NewReportFile(rep)

	path := t.TempDir() + "/report.json"
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reports[0].Metrics.Counter("sim.cycles") != 123 {
		t.Fatalf("round-trip lost metrics: %+v", got.Reports[0].Metrics)
	}

	if _, err := ReadReportFile(t.TempDir() + "/missing.json"); err == nil {
		t.Fatal("missing file must error")
	}
}
