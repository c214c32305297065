package obsv

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// EventKind classifies a traced simulation event.
type EventKind uint8

// Event kinds. Aux carries a kind-specific payload, documented per
// constant and in docs/METRICS.md.
const (
	// EvActivate: a DRAM row activation. Row is the global row, Aux
	// the memsim.Kind that caused it (demand read/write, metadata,
	// mitigation).
	EvActivate EventKind = iota
	// EvMitigate: the tracker flagged Row; Aux is 0 for demand rows,
	// 1 for the tracker's own metadata rows (RIT-ACT path).
	EvMitigate
	// EvRefresh: a rank auto-refresh; Aux is the rank index, Row the
	// channel.
	EvRefresh
	// EvGCTSaturate: a Hydra group counter reached T_G and the group
	// switched to per-row tracking; Aux is the group index.
	EvGCTSaturate
	// EvWindowReset: the 64 ms tracking window rolled over and SRAM
	// state was cleared; Aux is the reset ordinal.
	EvWindowReset
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvActivate:
		return "activate"
	case EvMitigate:
		return "mitigate"
	case EvRefresh:
		return "refresh"
	case EvGCTSaturate:
		return "gct-saturate"
	case EvWindowReset:
		return "window-reset"
	default:
		return "unknown"
	}
}

// Event is one traced occurrence. Cycle is the 3.2 GHz core-cycle
// timestamp the simulator assigned.
type Event struct {
	Cycle int64     `json:"cycle"`
	Kind  EventKind `json:"-"`
	Row   uint32    `json:"row"`
	Aux   int64     `json:"aux,omitempty"`
}

// eventJSON is the JSONL wire form, with the kind spelled out.
type eventJSON struct {
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"`
	Row   uint32 `json:"row"`
	Aux   int64  `json:"aux,omitempty"`
}

// Tracer records simulation events into a bounded ring buffer: when
// the buffer fills, the oldest events are overwritten and counted as
// dropped, so a trace of a long run keeps its tail (the interesting
// part — saturation builds up over a window).
//
// A nil *Tracer is valid and records nothing; every Emit site is
// therefore a single nil-check when tracing is disabled. An enabled
// tracer is safe for concurrent use, so one tracer may be shared by
// simulations running on several goroutines.
type Tracer struct {
	mu      sync.Mutex
	ring    []Event
	next    int
	total   uint64
	wrapped bool
}

// NewTracer creates a tracer holding at most capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// Emit records one event. It is a no-op on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	t.total++
	t.mu.Unlock()
}

// Enabled reports whether events will be recorded; event sites can
// skip building expensive payloads when false.
func (t *Tracer) Enabled() bool { return t != nil }

// Total returns how many events were emitted (recorded or dropped).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(t.len())
}

func (t *Tracer) len() int {
	if t.wrapped {
		return len(t.ring)
	}
	return t.next
}

// Events returns the retained events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.len())
	if t.wrapped {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	return out
}

// WriteJSONL streams the retained events to w, one JSON object per
// line, suitable for jq / pandas consumption.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.Events() {
		if err := enc.Encode(eventJSON{
			Cycle: e.Cycle, Kind: e.Kind.String(), Row: e.Row, Aux: e.Aux,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
