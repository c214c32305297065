package harness

import (
	"sync"
	"time"
)

// CellEventSchema identifies the wire shape of campaign cell events;
// bump on breaking changes so stream consumers can dispatch.
const CellEventSchema = "hydra-cell-event/v1"

// Cell event kinds, in rough lifecycle order. cached, done and failed
// are terminal: a campaign publishes exactly one terminal event per
// cell, matching the cell's row in the run report.
const (
	EvQueued   = "queued"   // cell admitted to the campaign (after the cache pre-pass)
	EvStarted  = "started"  // cell entered a worker
	EvProgress = "progress" // periodic simulated-cycle sample from the running cell
	EvCached   = "cached"   // terminal: value replayed from the result cache
	EvDone     = "done"     // terminal: computed successfully
	EvFailed   = "failed"   // terminal: the cell failed; Error says why
)

// CellEvent is one observation of a campaign cell's lifecycle,
// published by the worker pool and streamed over HTTP as NDJSON
// (obsv.Server /events). Events are ordered per campaign by Seq; TSec
// is seconds since the bus was created, so a stream is self-contained
// without wall-clock parsing.
type CellEvent struct {
	Schema string  `json:"schema"`
	Seq    int64   `json:"seq"`
	TSec   float64 `json:"t_sec"`
	Kind   string  `json:"kind"`
	// Key identifies the cell ("target/variant/workload").
	Key string `json:"key"`
	// Tags carries the caller's cell labels (the experiment layer sets
	// scheme, workload and seed — see exp.Options).
	Tags map[string]string `json:"tags,omitempty"`
	// Cycles is the cell's latest simulated-cycle count: the live value
	// for progress events, the final one for done/failed.
	Cycles int64 `json:"cycles,omitempty"`
	// ElapsedSec is the cell's wall-clock time so far (terminal events:
	// the total).
	ElapsedSec float64 `json:"elapsed_sec,omitempty"`
	// Error is the cell's error, on failed events.
	Error string `json:"error,omitempty"`
}

// Terminal reports whether the event settles its cell.
func (e CellEvent) Terminal() bool {
	switch e.Kind {
	case EvCached, EvDone, EvFailed:
		return true
	}
	return false
}

// busSub is one subscriber's bounded mailbox.
type busSub struct {
	ch      chan CellEvent
	dropped int64
}

// Bus fans campaign cell events out to in-process subscribers (the
// live progress line, tests) and — via the obsv.EventSource adapter —
// to HTTP NDJSON streams. Publishing never blocks the worker pool: a
// subscriber whose buffer is full loses the event (counted per
// subscriber in Dropped), because a slow scrape client must not stall
// a simulation campaign.
//
// The bus retains a bounded ring of recent events so subscribers that
// attach mid-campaign can ask for a replay of the backlog. Close ends
// every subscription; a closed bus drops further publishes, so one bus
// must not be shared by concurrent campaigns that outlive each other.
type Bus struct {
	mu      sync.Mutex
	start   time.Time
	seq     int64
	subs    map[int]*busSub
	nextID  int
	ring    []CellEvent
	ringLen int // occupied prefix length until the ring wraps
	ringAt  int // next write position
	closed  bool
	dropped int64
}

// NewBus creates a bus retaining up to retain events for replay to
// late subscribers (0 or negative picks the default 4096).
func NewBus(retain int) *Bus {
	if retain <= 0 {
		retain = 4096
	}
	return &Bus{
		start: time.Now(),
		subs:  map[int]*busSub{},
		ring:  make([]CellEvent, retain),
	}
}

// Publish stamps and delivers an event. Safe for concurrent use; a nil
// bus ignores the event, so call sites need no guard.
func (b *Bus) Publish(e CellEvent) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seq++
	e.Schema = CellEventSchema
	e.Seq = b.seq
	e.TSec = time.Since(b.start).Seconds()
	b.ring[b.ringAt] = e
	b.ringAt++
	if b.ringAt > b.ringLen {
		b.ringLen = b.ringAt
	}
	if b.ringAt == len(b.ring) {
		b.ringAt = 0
	}
	for _, s := range b.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped++
			b.dropped++
		}
	}
	b.mu.Unlock()
}

// backlog returns the retained events in publish order. Caller holds mu.
func (b *Bus) backlog() []CellEvent {
	out := make([]CellEvent, 0, b.ringLen)
	if b.ringLen == len(b.ring) { // wrapped: oldest is at ringAt
		out = append(out, b.ring[b.ringAt:]...)
		out = append(out, b.ring[:b.ringAt]...)
	} else {
		out = append(out, b.ring[:b.ringLen]...)
	}
	return out
}

// Subscribe attaches a subscriber with the given mailbox capacity
// (minimum 1). With replay, the retained backlog is queued first —
// events beyond the buffer capacity are dropped oldest-first rather
// than blocking. The channel closes on Close or cancel; cancel is
// idempotent and safe to call concurrently with Publish.
func (b *Bus) Subscribe(buffer int, replay bool) (<-chan CellEvent, func()) {
	if buffer < 1 {
		buffer = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := &busSub{ch: make(chan CellEvent, buffer)}
	if replay {
		back := b.backlog()
		if len(back) > buffer {
			s.dropped += int64(len(back) - buffer)
			b.dropped += int64(len(back) - buffer)
			back = back[len(back)-buffer:]
		}
		for _, e := range back {
			s.ch <- e
		}
	}
	if b.closed {
		close(s.ch)
		return s.ch, func() {}
	}
	id := b.nextID
	b.nextID++
	b.subs[id] = s
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			if _, ok := b.subs[id]; ok {
				delete(b.subs, id)
				close(s.ch)
			}
			b.mu.Unlock()
		})
	}
	return s.ch, cancel
}

// SubscribeAny adapts Subscribe to the obsv.EventSource interface so
// an obsv.Server can stream the bus without obsv importing harness.
func (b *Bus) SubscribeAny(buffer int, replay bool) (<-chan any, func()) {
	ch, cancel := b.Subscribe(buffer, replay)
	out := make(chan any, 1)
	go func() {
		defer close(out)
		for e := range ch {
			out <- e
		}
	}()
	return out, cancel
}

// Close ends every subscription (their channels close after the
// backlog drains) and makes further publishes no-ops. Idempotent.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, s := range b.subs {
		delete(b.subs, id)
		close(s.ch)
	}
}

// Dropped reports how many events were lost to full subscriber
// buffers or truncated replays, across all subscribers.
func (b *Bus) Dropped() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}
