package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"memsim.readq_depth": "memsim_readq_depth",
		"sim.acts.read":      "sim_acts_read",
		"plain":              "plain",
		"9lives":             "_9lives",
		"a-b c":              "a_b_c",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteProm(t *testing.T) {
	h := NewHist(10, 20)
	for v := int64(1); v <= 20; v++ {
		h.Observe(v)
	}
	m := Metrics{
		"memsim.reads":       {Type: TypeCounter, Value: 42, Unit: "requests"},
		"sim.ipc":            {Type: TypeGauge, Value: 10.5},
		"memsim.readq_depth": {Type: TypeHistogram, Value: float64(h.N), Hist: &h},
	}
	var b strings.Builder
	if err := WriteProm(&b, m); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	samples := testutil.ParseProm(t, out)

	if got := samples["memsim_reads"]; got != 42 {
		t.Errorf("counter = %v, want 42", got)
	}
	if got := samples["sim_ipc"]; got != 10.5 {
		t.Errorf("gauge = %v, want 10.5", got)
	}
	// Cumulative buckets: le=10 holds 10 samples, le=20 and +Inf all 20.
	if got := samples[`memsim_readq_depth_bucket{le="10"}`]; got != 10 {
		t.Errorf("le=10 bucket = %v, want 10", got)
	}
	if got := samples[`memsim_readq_depth_bucket{le="20"}`]; got != 20 {
		t.Errorf("le=20 bucket = %v, want 20", got)
	}
	if got := samples[`memsim_readq_depth_bucket{le="+Inf"}`]; got != 20 {
		t.Errorf("+Inf bucket = %v, want 20", got)
	}
	if got := samples["memsim_readq_depth_sum"]; got != 210 {
		t.Errorf("sum = %v, want 210", got)
	}
	if got := samples["memsim_readq_depth_count"]; got != 20 {
		t.Errorf("count = %v, want 20", got)
	}
	if got := samples[`memsim_readq_depth_quantile{quantile="0.5"}`]; got != h.Quantile(0.5) {
		t.Errorf("p50 = %v, want %v", got, h.Quantile(0.5))
	}
	for _, want := range []string{
		"# TYPE memsim_reads counter",
		"# TYPE sim_ipc gauge",
		"# TYPE memsim_readq_depth histogram",
		"# TYPE memsim_readq_depth_quantile gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// chanSource adapts a plain channel to EventSource for tests.
type chanSource struct {
	events []any
}

func (c *chanSource) SubscribeAny(buffer int, replay bool) (<-chan any, func()) {
	ch := make(chan any, len(c.events)+1)
	for _, e := range c.events {
		ch <- e
	}
	close(ch)
	return ch, func() {}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Count("memsim.reads", 7)
	src := &chanSource{events: []any{
		map[string]any{"kind": "done", "key": "t/a/b"},
		map[string]any{"kind": "failed", "key": "t/a/c"},
	}}
	s := NewServer(ServerOptions{Gather: reg.Snapshot, Events: src})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, _ := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}

	body, ctype := get("/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if got := testutil.ParseProm(t, body)["memsim_reads"]; got != 7 {
		t.Errorf("/metrics memsim_reads = %v, want 7", got)
	}

	body, ctype = get("/metrics.json")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/metrics.json content type %q", ctype)
	}
	var m Metrics
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("/metrics.json unparseable: %v", err)
	}
	if m.Counter("memsim.reads") != 7 {
		t.Errorf("/metrics.json counter = %d, want 7", m.Counter("memsim.reads"))
	}

	body, ctype = get("/events")
	if !strings.Contains(ctype, "application/x-ndjson") {
		t.Errorf("/events content type %q", ctype)
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	lines := 0
	for sc.Scan() {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines != 2 {
		t.Errorf("/events streamed %d lines, want 2", lines)
	}

	if body, _ = get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestServerNoEventSource(t *testing.T) {
	s := NewServer(ServerOptions{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/events without a source: status %d, want 404", resp.StatusCode)
	}
}

func TestServerStartClose(t *testing.T) {
	s := NewServer(ServerOptions{Gather: func() Metrics { return Metrics{} }})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestRegistryConcurrentGather exercises the live-scrape scenario under
// the race detector: campaign workers merge finished-cell snapshots
// and bump counters while a scraper snapshots and renders concurrently.
func TestRegistryConcurrentGather(t *testing.T) {
	reg := NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHist(PowersOfTwo(64)...)
			for i := 0; i < 200; i++ {
				reg.Count("campaign.cells.ok", 1)
				reg.Gauge("sim.ipc", float64(i))
				h.Observe(int64(i % 70))
				reg.Histogram(fmt.Sprintf("depth.w%d", w), h)
				reg.Merge(Metrics{"memsim.reads": {Type: TypeCounter, Value: 1}})
			}
		}(w)
	}
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			snap := reg.Snapshot()
			var b strings.Builder
			if err := WriteProm(&b, snap); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	snap := reg.Snapshot()
	if got := snap.Counter("campaign.cells.ok"); got != 800 {
		t.Errorf("campaign.cells.ok = %d, want 800", got)
	}
	if got := snap.Counter("memsim.reads"); got != 800 {
		t.Errorf("merged memsim.reads = %d, want 800", got)
	}
}

// liveSource is an EventSource whose channel never closes on its own —
// the shape of a campaign still in flight when the process is told to
// shut down.
type liveSource struct{ ch chan any }

func (l liveSource) SubscribeAny(int, bool) (<-chan any, func()) { return l.ch, func() {} }

// TestServerShutdownEndsEventStream pins the graceful-shutdown
// contract for streaming handlers: a client following /events while
// Shutdown is called gets its buffered events and a clean end of
// stream (io.EOF from a completed chunked response), not a connection
// reset — and Shutdown itself returns instead of waiting forever on
// the never-ending stream.
func TestServerShutdownEndsEventStream(t *testing.T) {
	src := liveSource{ch: make(chan any, 8)}
	s := NewServer(ServerOptions{Events: src})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/events", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// One event while the stream is live, to prove it is mid-flight.
	src.ch <- map[string]any{"kind": "running", "key": "t/a/b"}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading live event: %v", err)
	}
	var e map[string]any
	if err := json.Unmarshal(line, &e); err != nil {
		t.Fatalf("live event %q: %v", line, err)
	}

	// Shutdown with the stream still open: the handler must notice and
	// return so the listener can drain within the deadline.
	errc := make(chan error, 1)
	go func() { errc <- s.Shutdown(5 * time.Second) }()

	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("stream did not end cleanly: %v (read %q)", err, rest)
	}
	if len(rest) != 0 {
		t.Errorf("unexpected trailing stream data %q", rest)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}
