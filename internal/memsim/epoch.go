package memsim

// This file is the bulk-synchronous epoch engine. The per-channel
// controllers share no timing state (channels are independent DDR4
// controllers), so within an epoch a channel decision never invokes a
// callback: it appends its side effects — read completions,
// activation-hook calls, refresh trace events — to one Memory-owned
// event buffer, and the barrier replays that buffer front to back.
// RunEpoch steps the channel with the earliest next decision (lowest
// channel on ties), which is the order of stepping the channels one
// global event at a time; since no callback or submission runs inside
// an epoch and every step leaves its channel's next decision strictly
// later, the buffer holds the side effects in exactly (decision cycle,
// channel, emission) order and the barrier needs no merge.
//
// RunEpoch bounds the epoch by lookahead: every read completion
// produced by a scheduling decision at time t lands at t+lookahead or
// later, so an epoch no wider than lookahead past the earliest pending
// decision cannot run past a completion a core is blocked on — cores
// wake at the barrier with their exact completion times and simulated
// time never runs backwards for them. Activation hooks do run up to
// one epoch later than under per-event stepping (their submissions
// enter the queues at the barrier), which is the semantic difference
// between this engine and the old interleaved loop; only the engine
// generation (the sim cache-key version) records the shift. The
// channels advance on the caller's goroutine; docs/PERFORMANCE.md
// ("Epoch engine") says why there is no per-channel fan-out.

import "repro/internal/obsv"

// chanEvent is one buffered side effect of a channel decision. t is
// the payload time: the completion time for finish events, the
// activation time for hook events, the refresh start for trace events.
// Activation events carry the precomputed global row and request kind
// rather than the request, which may already be recycled by the time
// the hook replays.
type chanEvent struct {
	t     int64
	r     *Request // evFinish only
	aux   int64    // evRefresh: rank
	row   uint32   // evAct: global row; evRefresh: channel id
	kind  uint8
	rkind Kind // evAct: activating request kind
}

const (
	evFinish uint8 = iota
	evAct
	evRefresh
)

// lookahead returns the minimum delay between a scheduling decision
// and the earliest read completion it can produce (CAS latency, burst,
// and the static core-to-controller return). It is the widest epoch
// horizon past the earliest pending decision that still delivers every
// core wake-up exactly on time.
func (m *Memory) lookahead() int64 {
	return m.cfg.Timing.TCAS + m.cfg.Timing.TBURST + m.cfg.StaticLatency
}

// RunEpoch runs one epoch and returns the new earliest event time.
// limit is the caller's own bound — its next event (a core step, a
// window reset) — and RunEpoch clamps the horizon to
// max(min(NextTime()+lookahead, limit), NextTime()+1): every
// scheduling decision strictly before the horizon runs, in decision
// order, and then the barrier replays their side effects. The lower
// clamp guarantees progress — at least the earliest decision runs,
// even when limit is not past NextTime() — and the result stays exact
// as long as no caller event lies before limit. On idle memory
// RunEpoch does nothing.
func (m *Memory) RunEpoch(limit int64) int64 {
	next := m.NextTime()
	if next == Infinity {
		return next
	}
	horizon := max(min(next+m.lookahead(), limit), next+1)
	m.epochs++
	for {
		c := m.channels[0]
		for _, d := range m.channels[1:] {
			if d.nextAt < c.nextAt {
				c = d
			}
		}
		if c.nextAt >= horizon {
			break
		}
		c.step()
	}
	m.drain()
	return m.NextTime()
}

// drain replays the epoch's events in emission order. Callbacks may
// freely submit new requests (to any channel) and release pooled
// requests; submissions never append to the event buffer, so it is
// fixed for the whole drain. The buffer keeps its capacity across
// epochs; the steady-state loop does not allocate.
func (m *Memory) drain() {
	for i := range m.sh.events {
		m.replay(&m.sh.events[i])
	}
	m.sh.events = m.sh.events[:0]
}

// replay delivers one buffered event.
func (m *Memory) replay(e *chanEvent) {
	switch e.kind {
	case evFinish:
		r := e.r
		e.r = nil // release the pointer; pooled requests recycle now
		r.OnFinish(r, e.t)
		if r.pooled {
			m.sh.release(r)
		}
	case evAct:
		m.cfg.OnACT(e.row, e.rkind, e.t)
	case evRefresh:
		m.cfg.Trace.Emit(obsv.Event{Cycle: e.t, Kind: obsv.EvRefresh, Row: e.row, Aux: e.aux})
	}
}
