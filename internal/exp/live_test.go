package exp

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obsv"
	"repro/internal/testutil"
)

// TestLiveTelemetryEndToEnd drives the whole telemetry plane the way
// `experiments -listen` wires it: a campaign publishes to a bus and a
// live registry while an HTTP client follows /events as NDJSON and a
// scraper polls /metrics mid-campaign. The stream's terminal events
// must agree with the campaign's cell verdicts, and every scrape must
// be parseable Prometheus exposition.
func TestLiveTelemetryEndToEnd(t *testing.T) {
	bus := harness.NewBus(0)
	live := obsv.NewRegistry()
	srv := obsv.NewServer(obsv.ServerOptions{Gather: live.Snapshot, Events: bus})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Attach the event stream before the campaign so it sees everything.
	resp, err := http.Get(ts.URL + "/events?replay=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/x-ndjson") {
		t.Fatalf("/events content type %q", ct)
	}

	type ev struct {
		Schema string            `json:"schema"`
		Seq    int64             `json:"seq"`
		Kind   string            `json:"kind"`
		Key    string            `json:"key"`
		Tags   map[string]string `json:"tags"`
		Cycles int64             `json:"cycles"`
	}
	collected := make(chan []ev, 1)
	go func() {
		var out []ev
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var e ev
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Errorf("NDJSON line %q: %v", sc.Text(), err)
				break
			}
			out = append(out, e)
		}
		collected <- out
	}()

	// Scrape /metrics concurrently with the running cells; the bodies
	// are checked on the test goroutine, since ParseProm may t.Fatal.
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	var scraped []string
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			r, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(r.Body)
			r.Body.Close()
			scraped = append(scraped, string(body))
			time.Sleep(5 * time.Millisecond)
		}
	}()

	rep, err := Figure5(Options{
		Scale:     256,
		Workloads: []string{"parest", "GUPS"},
		Target:    "livetest",
		Bus:       bus,
		Live:      live,
	})
	if err != nil {
		t.Fatal(err)
	}
	bus.Close() // campaign over: the NDJSON stream must end
	close(stopScrape)
	<-scrapeDone
	for _, body := range scraped {
		testutil.ParseProm(t, body)
	}

	var events []ev
	select {
	case events = <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("/events stream did not end after bus close")
	}

	// Stream sanity: schema stamped, seq strictly increasing.
	lastSeq := int64(0)
	terminal := map[string]ev{}
	started := map[string]bool{}
	for _, e := range events {
		if e.Schema != harness.CellEventSchema {
			t.Fatalf("event without schema: %+v", e)
		}
		if e.Seq <= lastSeq {
			t.Fatalf("seq not increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case harness.EvStarted:
			started[e.Key] = true
		case harness.EvCached, harness.EvDone, harness.EvFailed:
			if _, dup := terminal[e.Key]; dup {
				t.Errorf("cell %s has two terminal events", e.Key)
			}
			terminal[e.Key] = e
		}
	}

	// The terminal events must match the report's cell verdicts 1:1.
	if len(rep.Cells) == 0 {
		t.Fatal("report has no cells")
	}
	wantKind := map[string]string{
		obsv.CellOK:     harness.EvDone,
		obsv.CellFailed: harness.EvFailed,
		obsv.CellCached: harness.EvCached,
	}
	for _, c := range rep.Cells {
		e, ok := terminal[c.Key]
		if !ok {
			t.Errorf("cell %s has no terminal event", c.Key)
			continue
		}
		if want := wantKind[c.Status]; e.Kind != want {
			t.Errorf("cell %s: status %q but terminal event %q", c.Key, c.Status, e.Kind)
		}
		if c.Status == obsv.CellOK {
			if !started[c.Key] {
				t.Errorf("cell %s completed without a started event", c.Key)
			}
			// The event carries the harness-observed progress value; it can
			// trail the simulator's final count but never exceed it.
			if e.Cycles <= 0 || e.Cycles > c.Cycles {
				t.Errorf("cell %s: event cycles %d vs report cycles %d", c.Key, e.Cycles, c.Cycles)
			}
		}
		if e.Tags["target"] != "livetest" || e.Tags["scheme"] == "" || e.Tags["workload"] == "" || e.Tags["seed"] == "" {
			t.Errorf("cell %s: incomplete tags %v", c.Key, e.Tags)
		}
	}
	if len(terminal) != len(rep.Cells) {
		t.Errorf("%d terminal events for %d cells", len(terminal), len(rep.Cells))
	}

	// The final scrape must carry the campaign progress counters and the
	// merged per-cell simulator metrics.
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	samples := testutil.ParseProm(t, string(body))
	okCells := 0
	for _, c := range rep.Cells {
		if c.Status == obsv.CellOK {
			okCells++
		}
	}
	if got := samples["campaign_cells_ok"]; got != float64(okCells) {
		t.Errorf("campaign_cells_ok = %v, want %d", got, okCells)
	}
	if samples["memsim_reads"] <= 0 {
		t.Errorf("merged simulator metrics absent from /metrics:\n%s", body)
	}
}
