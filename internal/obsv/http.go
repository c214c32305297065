package obsv

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// GatherFunc returns a current metrics snapshot. The obsv.Server calls
// it on every scrape, so it must be safe for concurrent use —
// (*Registry).Snapshot is the canonical implementation.
type GatherFunc func() Metrics

// EventSource is a live feed of JSON-marshalable events, implemented
// by harness.Bus (structurally — obsv stays dependency-free). The
// returned channel is closed when the source shuts down or cancel is
// called; replay asks the source to prepend its retained backlog so a
// late subscriber still sees the campaign so far.
type EventSource interface {
	SubscribeAny(buffer int, replay bool) (<-chan any, func())
}

// ServerOptions configures an obsv.Server. All fields are optional: a
// zero-value server still serves /healthz and the pprof handlers.
type ServerOptions struct {
	// Gather supplies the /metrics and /metrics.json snapshot.
	Gather GatherFunc
	// Events supplies the /events NDJSON stream.
	Events EventSource
}

// Server is the live telemetry plane of a running campaign: one mux
// exposing
//
//	/metrics       Prometheus text exposition (version 0.0.4)
//	/metrics.json  the same snapshot as JSON (obsv.Metrics)
//	/events        NDJSON cell-event stream (schema hydra-cell-event/v1;
//	               ?replay=1 prepends the retained backlog)
//	/healthz       liveness probe ("ok")
//	/debug/pprof/  the standard runtime profiles
//
// It is the API surface a future hydrad daemon mounts its versioned
// routes onto; cmd/experiments wires it through its -listen flag (the
// other binaries run one cell and exit, and write the same data with
// -json, -cpuprofile and -memprofile). See the "Exposition & live
// progress" section of docs/METRICS.md.
type Server struct {
	opts ServerOptions
	mux  *http.ServeMux

	// done is closed by Shutdown/Close so streaming handlers (/events)
	// end their response cleanly — http.Server.Shutdown alone would
	// wait forever on an NDJSON stream that never returns.
	done     chan struct{}
	downOnce sync.Once

	mu  sync.Mutex
	ln  net.Listener
	srv *http.Server
}

// NewServer builds a telemetry server; Start (or an external
// http.Server via Handler) makes it reachable.
func NewServer(opts ServerOptions) *Server {
	s := &Server{opts: opts, mux: http.NewServeMux(), done: make(chan struct{})}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the telemetry mux, for mounting under an existing
// server (httptest, or hydrad's versioned router).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine until Close. It returns the bound address so
// callers can print a reachable URL.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obsv: telemetry listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.ln, s.srv = ln, srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close; the process is exiting anyway
	return ln.Addr(), nil
}

// ListenFlag implements cmd/experiments' -listen flag: with an empty
// addr it does nothing and returns a no-op stop; otherwise it starts a
// telemetry server on addr, prints the reachable metrics URL to stderr
// (stdout stays machine-parseable), and returns a graceful stop
// (Shutdown under a short deadline, so in-flight scrapes and /events
// streams drain). The returned stop is always non-nil and safe to
// defer.
func ListenFlag(addr string, opts ServerOptions) (stop func() error, err error) {
	if addr == "" {
		return func() error { return nil }, nil
	}
	s := NewServer(opts)
	bound, err := s.Start(addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "[telemetry: http://%s/metrics]\n", bound)
	return func() error { return s.Shutdown(2 * time.Second) }, nil
}

// Shutdown stops a started server gracefully: streaming handlers are
// told to finish (in-flight /events subscribers get their final flush
// and a clean EOF instead of a connection reset), then the listener
// drains in-flight scrapes under the deadline. If the deadline
// expires, the remaining connections are closed abruptly — shutdown
// must terminate even with a wedged client. No-op on a never-started
// server.
func (s *Server) Shutdown(deadline time.Duration) error {
	s.downOnce.Do(func() { close(s.done) })
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return srv.Close()
	}
	return nil
}

// Close stops a started server abruptly (no-op otherwise). Prefer
// Shutdown; Close exists for tests and last-resort teardown.
func (s *Server) Close() error {
	s.downOnce.Do(func() { close(s.done) })
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) gather() Metrics {
	if s.opts.Gather == nil {
		return Metrics{}
	}
	return s.opts.Gather()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteProm(w, s.gather())
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.gather()) //nolint:errcheck // client gone; nothing to do
}

// handleEvents streams the event bus as NDJSON: one JSON object per
// line, flushed per event so `curl -N` follows a campaign live. The
// stream ends when the source closes (campaign done) or the client
// disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.opts.Events == nil {
		http.Error(w, "no event source attached", http.StatusNotFound)
		return
	}
	replay := r.URL.Query().Get("replay") != ""
	ch, cancel := s.opts.Events.SubscribeAny(1024, replay)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	// Flush the headers now: a client attaching before the campaign's
	// first event must see the stream open, not block on a response.
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			// Graceful shutdown: return so http.Server.Shutdown can
			// complete; the client sees a clean end of stream.
			return
		case e, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(e); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// promQuantiles are the summary lines WriteProm renders per histogram,
// matching the p50/p95/p99 rows of `hydrastat summarize`.
var promQuantiles = []float64{0.5, 0.95, 0.99}

// PromName converts a dotted metric name ("memsim.readq_depth") to the
// Prometheus identifier charset ("memsim_readq_depth"). Characters
// outside [a-zA-Z0-9_:] become underscores; a leading digit is
// prefixed.
func PromName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			if r >= '0' && r <= '9' { // leading digit
				b.WriteByte('_')
				b.WriteRune(r)
				continue
			}
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// WriteProm renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative _bucket/_sum/_count series plus
// interpolated _quantile gauges (Hist.Quantile) so a scrape shows
// p50/p95/p99 without server-side histogram_quantile. Names are
// emitted in sorted order for deterministic scrapes.
func WriteProm(w io.Writer, m Metrics) error {
	bw := bufio.NewWriter(w)
	for _, name := range m.Names() {
		met := m[name]
		pn := PromName(name)
		switch met.Type {
		case TypeCounter:
			fmt.Fprintf(bw, "# TYPE %s counter\n", pn)
			if met.Unit != "" {
				fmt.Fprintf(bw, "# HELP %s unit: %s\n", pn, met.Unit)
			}
			fmt.Fprintf(bw, "%s %s\n", pn, strconv.FormatInt(int64(met.Value), 10))
		case TypeGauge:
			fmt.Fprintf(bw, "# TYPE %s gauge\n", pn)
			fmt.Fprintf(bw, "%s %s\n", pn, formatPromFloat(met.Value))
		case TypeHistogram:
			h := met.Hist
			if h == nil || len(h.Counts) != len(h.Bounds)+1 {
				continue
			}
			fmt.Fprintf(bw, "# TYPE %s histogram\n", pn)
			cum := int64(0)
			for i, b := range h.Bounds {
				cum += h.Counts[i]
				fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", pn, b, cum)
			}
			cum += h.Counts[len(h.Bounds)]
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
			fmt.Fprintf(bw, "%s_sum %d\n", pn, h.Sum)
			fmt.Fprintf(bw, "%s_count %d\n", pn, h.N)
			fmt.Fprintf(bw, "# TYPE %s_quantile gauge\n", pn)
			for _, q := range promQuantiles {
				fmt.Fprintf(bw, "%s_quantile{quantile=\"%s\"} %s\n",
					pn, formatPromFloat(q), formatPromFloat(h.Quantile(q)))
			}
		}
	}
	return bw.Flush()
}

// formatPromFloat renders a float the way Prometheus expects: shortest
// round-trip representation, no exponent surprises for common values.
func formatPromFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
