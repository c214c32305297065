package memsim

// This file is the bulk-synchronous epoch engine. The per-channel
// controllers share no timing state (channels are independent DDR4
// controllers), so a Memory can advance every channel independently up
// to an epoch horizon and only then deliver the side effects — read
// completions, activation-hook calls, refresh trace events — in one
// deterministic merge. Within an epoch a channel therefore never
// invokes a callback; it appends to its private event buffer, and the
// barrier replays the union of all buffers in (decision cycle, channel,
// emission index) order, which reproduces exactly the callback order of
// stepping the channels one global event at a time (the earliest-next
// scan with its lowest-channel tie-break).
//
// The horizon the caller may use is bounded by Lookahead: every read
// completion produced by a scheduling decision at time t lands at
// t+Lookahead or later, so an epoch no wider than Lookahead past the
// earliest pending decision cannot run past a completion a core is
// blocked on — cores wake at the barrier with their exact completion
// times and simulated time never runs backwards for them. Activation
// hooks do run up to one epoch later than under per-event stepping
// (their submissions enter the queues at the barrier), which is the
// semantic difference between this engine and the old interleaved loop;
// it is identical in serial and parallel execution, so the two modes
// are bitwise-equal and only the engine generation (the sim cache-key
// version) records the shift.
//
// Parallel execution fans the per-channel loops out to persistent
// worker goroutines (one per channel past the first; the caller's
// goroutine runs channel 0). Workers are pure channel-steppers: they
// touch only their channel's state, never the shared request pool or
// any callback, so the fan-out needs no locks — a generation counter
// published with atomics hands out horizons and collects completions.
// Workers spin briefly between epochs and park on a channel when the
// master stays away (core-bound stretches), so an idle simulation does
// not burn a core per channel.

import (
	"runtime"
	"sync/atomic"

	"repro/internal/obsv"
)

// chanEvent is one buffered side effect of a channel decision. dec is
// the decision (step) time — the merge key — and t the payload time:
// the completion time for finish events, the activation time for hook
// events, the refresh start for trace events. Activation events carry
// the precomputed global row and request kind rather than the request,
// which may already be recycled by the time the hook replays.
type chanEvent struct {
	dec   int64
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

// Lookahead returns the minimum delay between a scheduling decision
// and the earliest read completion it can produce (CAS latency, burst,
// and the static core-to-controller return). It is the widest epoch
// horizon past the earliest pending decision that still delivers every
// core wake-up exactly on time.
func (m *Memory) Lookahead() int64 {
	return m.cfg.Timing.TCAS + m.cfg.Timing.TBURST + m.cfg.StaticLatency
}

// RunEpoch advances every channel through all scheduling decisions
// strictly before horizon, then replays the buffered side effects in
// deterministic merge order and returns the new earliest event time.
// The caller must keep horizon within Lookahead of NextTime() (and at
// most the next tracking-window reset) for exact results; RunEpoch
// itself only requires horizon > NextTime() to make progress.
//
// With Config.Parallel set (and GOMAXPROCS > 1 at New), epochs with
// more than one active channel fan out to worker goroutines; results
// are bitwise-identical either way.
func (m *Memory) RunEpoch(horizon int64) int64 {
	m.epochs++
	run := false
	if m.parallel {
		active := 0
		for _, c := range m.channels {
			if c.nextAt < horizon {
				active++
			}
		}
		if active > 1 {
			m.runParallel(horizon)
			run = true
		}
	}
	if !run {
		for _, c := range m.channels {
			for c.nextAt < horizon {
				c.step()
			}
		}
	}
	m.drain()
	return m.NextTime()
}

// drain replays every buffered event in (decision cycle, channel,
// emission index) order. Replay runs on the caller's goroutine with all
// workers quiescent, so callbacks may freely submit new requests (to
// any channel) and release pooled requests; submissions never append
// to an event buffer, so the buffers are fixed for the whole drain.
// Once a single buffer has events left, merge order is its emission
// order and the rest replays in one loop. Buffers keep their capacity
// across epochs; the steady-state loop does not allocate. It reports
// whether any replayed callback could have submitted requests (a
// completion callback or the activation hook ran).
func (m *Memory) drain() bool {
	submitted := false
	for {
		var best *channel
		pending := 0
		for _, c := range m.channels {
			if c.evHead < len(c.events) {
				pending++
				if best == nil || c.events[c.evHead].dec < best.events[best.evHead].dec {
					best = c
				}
			}
		}
		if best == nil {
			break
		}
		end := best.evHead + 1
		if pending == 1 {
			end = len(best.events)
		}
		for ; best.evHead < end; best.evHead++ {
			if m.replay(&best.events[best.evHead]) {
				submitted = true
			}
		}
	}
	for _, c := range m.channels {
		c.events = c.events[:0]
		c.evHead = 0
	}
	return submitted
}

// replay delivers one buffered event and reports whether it ran a
// callback that may submit requests.
func (m *Memory) replay(e *chanEvent) bool {
	switch e.kind {
	case evFinish:
		r := e.r
		e.r = nil // release the pointer; pooled requests recycle now
		called := r.OnFinish != nil
		if called {
			r.OnFinish(r, e.t)
		}
		if r.pooled {
			m.sh.release(r)
		}
		return called
	case evAct:
		m.cfg.OnACT(e.row, e.rkind, e.t)
		return true
	case evRefresh:
		m.cfg.Trace.Emit(obsv.Event{Cycle: e.t, Kind: obsv.EvRefresh, Row: e.row, Aux: e.aux})
	}
	return false
}

// Close stops the parallel worker goroutines, if any were started. It
// is idempotent; the Memory remains usable afterwards in serial mode.
// Callers that enable Config.Parallel own a Close call (the sim run
// loop defers one).
func (m *Memory) Close() {
	if m.runner != nil {
		m.runner.stop()
		m.runner = nil
	}
	m.parallel = false
}

func (m *Memory) runParallel(horizon int64) {
	m.parEpochs++
	if m.runner == nil {
		m.runner = newParRunner(m.channels[1:])
	}
	m.runner.dispatch(horizon)
	c0 := m.channels[0]
	for c0.nextAt < horizon {
		c0.step()
	}
	m.runner.wait()
}

const stopGen = int64(-1)

// parWorker is the mailbox of one worker goroutine. The master writes
// horizon then seq to hand out an epoch; the worker writes done to
// report it. The pad keeps the two directions off one cache line.
type parWorker struct {
	c       *channel
	wake    chan struct{}
	seq     atomic.Int64
	horizon atomic.Int64
	_       [48]byte
	done    atomic.Int64
	parked  atomic.Int32
}

type parRunner struct {
	gen     int64
	workers []*parWorker
}

func newParRunner(chs []*channel) *parRunner {
	r := &parRunner{}
	for _, c := range chs {
		w := &parWorker{c: c, wake: make(chan struct{}, 1)}
		r.workers = append(r.workers, w)
		go w.loop()
	}
	return r
}

func (r *parRunner) dispatch(h int64) {
	r.gen++
	for _, w := range r.workers {
		w.horizon.Store(h)
		w.seq.Store(r.gen)
		if w.parked.Load() != 0 {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
	}
}

func (r *parRunner) wait() {
	for _, w := range r.workers {
		for i := 0; w.done.Load() != r.gen; i++ {
			if i > 64 {
				runtime.Gosched()
			}
		}
	}
}

func (r *parRunner) stop() {
	for _, w := range r.workers {
		w.seq.Store(stopGen)
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	for _, w := range r.workers {
		for i := 0; w.done.Load() != stopGen; i++ {
			if i > 64 {
				runtime.Gosched()
			}
		}
	}
}

// spinBudget bounds how long a worker spins for the next epoch before
// parking. Epochs arrive back to back while the memory system is busy,
// so the common case is caught within a few hundred loads; the park
// path covers core-bound stretches and the end of the run.
const spinBudget = 4096

func (w *parWorker) loop() {
	g := int64(0)
	idle := 0
	for {
		s := w.seq.Load()
		if s == g {
			idle++
			if idle < spinBudget {
				if idle&63 == 0 {
					runtime.Gosched()
				}
				continue
			}
			// Park: publish parked, then re-check seq so a dispatch
			// racing the publish is never lost — the master reads
			// parked after storing seq, so one side always sees the
			// other. Stale wake tokens (the chan holds one) only cost
			// a spurious loop.
			w.parked.Store(1)
			if w.seq.Load() != g {
				w.parked.Store(0)
				idle = 0
				continue
			}
			<-w.wake
			w.parked.Store(0)
			idle = 0
			continue
		}
		idle = 0
		if s == stopGen {
			w.done.Store(stopGen)
			return
		}
		g = s
		h := w.horizon.Load()
		c := w.c
		for c.nextAt < h {
			c.step()
		}
		w.done.Store(g)
	}
}
