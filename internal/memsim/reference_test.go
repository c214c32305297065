package memsim

import (
	"repro/internal/dram"
	"repro/internal/obsv"
)

// This file keeps the original linear-scan scheduler as a reference
// implementation, and driveStream and driveLate, which feed one request
// schedule to it and to the indexed scheduler in channel.go, run by the
// epoch engine the way a cell runs it. The scheduler, epoch and
// late-submit machines (machine_prop_test.go, late_prop_test.go)
// require both to make the identical sequence of decisions: same
// service order, same completion and activation times, same
// statistics. The reference scans every queued request on every
// decision (the pre-index behavior) and steps one global event at a
// time, firing callbacks at once, with the scheduler's semantic fixes
// folded in — lowest-seq starvation rescue, tWR/tWTR write timing, meta
// writes coalesced through the write queue, clamped refresh stagger —
// so any divergence isolates the indexing or the epoch engine's
// decision order.

type linChannel struct {
	cfg *Config
	id  int

	banks   []bank
	faw     [][4]int64
	fawIdx  []int
	nextRef []int64

	busFreeAt     int64
	lastWriteEnd  int64
	lastWriteBank int

	mitigQ []*Request
	readQ  []*Request
	metaQ  []*Request
	writeQ []*Request

	draining   bool
	now        int64
	nextAt     int64
	dispatchAt int64
	seq        int64
	openBanks  int64

	stats Stats
}

func newLinChannel(cfg *Config, id int) *linChannel {
	nBanks := cfg.Mem.RanksPerChannel * cfg.Mem.BanksPerRank
	c := &linChannel{
		cfg:     cfg,
		id:      id,
		banks:   make([]bank, nBanks),
		faw:     make([][4]int64, cfg.Mem.RanksPerChannel),
		fawIdx:  make([]int, cfg.Mem.RanksPerChannel),
		nextRef: make([]int64, cfg.Mem.RanksPerChannel),
		nextAt:  Infinity,
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
		c.banks[i].lastAct = -Infinity
	}
	c.stats.ReadQDepth = obsv.NewHist(obsv.PowersOfTwo(64)...)
	c.stats.WriteQDepth = obsv.NewHist(obsv.PowersOfTwo(128)...)
	c.stats.MetaQDepth = obsv.NewHist(obsv.PowersOfTwo(64)...)
	c.stats.OpenBanks = obsv.NewHist(obsv.PowersOfTwo(32)...)
	for r := range c.faw {
		for j := range c.faw[r] {
			c.faw[r][j] = -Infinity
		}
		c.nextRef[r] = cfg.Timing.TREFI + int64(id*997+r*511)%cfg.Timing.TREFI
	}
	return c
}

// loc decodes a request's address. The reference keeps no decoded
// fields of its own in the Request; it decodes Line where it needs one.
func (c *linChannel) loc(r *Request) dram.Loc {
	return c.cfg.Mem.Decode(r.Line)
}

func (c *linChannel) bankIdx(r *Request) int {
	l := c.loc(r)
	return l.Rank*c.cfg.Mem.BanksPerRank + l.Bank
}

func (c *linChannel) submit(r *Request) bool {
	switch r.Kind {
	case ReadReq:
		if len(c.readQ) >= c.cfg.ReadQCap {
			c.stats.ReadQFull++
			return false
		}
		c.readQ = append(c.readQ, r)
	case WriteReq:
		if len(c.writeQ) >= c.cfg.WriteQCap {
			c.stats.WriteQFull++
			return false
		}
		c.writeQ = append(c.writeQ, r)
	case MetaRead:
		c.metaQ = append(c.metaQ, r) // internal traffic: never refused
	case MetaWrite:
		c.writeQ = append(c.writeQ, r) // coalesced with the write drain
	case MitigAct:
		c.mitigQ = append(c.mitigQ, r)
	}
	c.seq++
	r.seq = c.seq
	at := r.Arrive
	if at < c.dispatchAt {
		at = c.dispatchAt
	}
	if at < c.now {
		at = c.now
	}
	if at < c.nextAt {
		c.nextAt = at
	}
	return true
}

func (c *linChannel) idle() bool {
	return len(c.mitigQ) == 0 && len(c.readQ) == 0 && len(c.metaQ) == 0 && len(c.writeQ) == 0
}

func (c *linChannel) step() {
	now := c.nextAt
	c.now = now
	c.applyRefreshes(now)
	c.stats.ReadQDepth.Observe(int64(len(c.readQ)))
	c.stats.WriteQDepth.Observe(int64(len(c.writeQ)))
	c.stats.MetaQDepth.Observe(int64(len(c.metaQ)))
	c.stats.OpenBanks.Observe(c.openBanks)

	r, from := c.pick(now)
	if r == nil {
		c.nextAt = c.earliestArrival()
		if c.nextAt < c.dispatchAt {
			c.nextAt = c.dispatchAt
		}
		return
	}
	c.remove(from, r)
	c.service(r, now)
	c.dispatchAt = now + cmdGap
	if r.Kind != MitigAct {
		lookahead := c.cfg.Timing.TRP + c.cfg.Timing.TRCD + c.cfg.Timing.TCAS
		if t := c.busFreeAt - lookahead; t > c.dispatchAt {
			c.dispatchAt = t
		}
	}
	c.nextAt = c.dispatchAt
}

func (c *linChannel) applyRefreshes(now int64) {
	for rank := range c.nextRef {
		for c.nextRef[rank] <= now {
			start := c.nextRef[rank]
			lo := rank * c.cfg.Mem.BanksPerRank
			for b := lo; b < lo+c.cfg.Mem.BanksPerRank; b++ {
				bk := &c.banks[b]
				s := start
				if bk.readyAt > s {
					s = bk.readyAt
				}
				if bk.openRow >= 0 && bk.wrRecover > s {
					s = bk.wrRecover
				}
				bk.readyAt = s + c.cfg.Timing.TRFC
				if bk.openRow >= 0 {
					c.openBanks--
					bk.openRow = -1
				}
			}
			c.stats.Refreshes++
			c.cfg.Trace.Emit(obsv.Event{Cycle: start, Kind: obsv.EvRefresh, Row: uint32(c.id), Aux: int64(rank)})
			c.nextRef[rank] += c.cfg.Timing.TREFI
		}
	}
}

func (c *linChannel) earliestArrival() int64 {
	t := Infinity
	for _, q := range [][]*Request{c.mitigQ, c.readQ, c.metaQ, c.writeQ} {
		for _, r := range q {
			if r.Arrive < t {
				t = r.Arrive
			}
		}
	}
	if t < c.now {
		t = c.now
	}
	return t
}

func (c *linChannel) pick(now int64) (*Request, *[]*Request) {
	if r := linOldestArrived(c.mitigQ, now); r != nil {
		return r, &c.mitigQ
	}
	if len(c.writeQ) >= c.cfg.DrainHi {
		if !c.draining {
			c.stats.DrainEnters++
		}
		c.draining = true
	} else if len(c.writeQ) <= c.cfg.DrainLo {
		if c.draining {
			c.stats.DrainExits++
		}
		c.draining = false
	}
	if c.draining {
		if r := c.frfcfs(c.writeQ, now); r != nil {
			return r, &c.writeQ
		}
	}
	if len(c.metaQ) > metaPressure {
		if r := c.frfcfs(c.metaQ, now); r != nil {
			return r, &c.metaQ
		}
	}
	if r := c.frfcfs(c.readQ, now); r != nil {
		return r, &c.readQ
	}
	if r := c.frfcfs(c.metaQ, now); r != nil {
		return r, &c.metaQ
	}
	if r := c.frfcfs(c.writeQ, now); r != nil {
		return r, &c.writeQ
	}
	return nil, nil
}

func linOldestArrived(q []*Request, now int64) *Request {
	var best *Request
	for _, r := range q {
		if r.Arrive <= now && (best == nil || r.seq < best.seq) {
			best = r
		}
	}
	return best
}

// frfcfs is the reference picker: a full scan over the queue with the
// fixed starvation rule (oldest submission among all starving
// requests, regardless of queue position).
func (c *linChannel) frfcfs(q []*Request, now int64) *Request {
	var starving *Request
	for _, r := range q {
		if r.Arrive <= now && r.Arrive < now-starvationAge {
			if starving == nil || r.seq < starving.seq {
				starving = r
			}
		}
	}
	if starving != nil {
		return starving
	}
	var best *Request
	var bestEst int64
	for _, r := range q {
		if r.Arrive > now {
			continue
		}
		b := &c.banks[c.bankIdx(r)]
		est := b.readyAt
		if est < now {
			est = now
		}
		if b.openRow != c.loc(r).Row {
			est += c.cfg.Timing.TRP + c.cfg.Timing.TRCD
		}
		if best == nil || est < bestEst || (est == bestEst && r.seq < best.seq) {
			best, bestEst = r, est
		}
	}
	return best
}

func (c *linChannel) remove(q *[]*Request, r *Request) {
	for i, x := range *q {
		if x == r {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
	panic("memsim: request not in its queue")
}

func (c *linChannel) fawReady(rank int) int64 {
	return c.faw[rank][c.fawIdx[rank]] + c.cfg.Timing.TFAW
}

func (c *linChannel) fawPush(rank int, t int64) {
	c.faw[rank][c.fawIdx[rank]] = t
	c.fawIdx[rank] = (c.fawIdx[rank] + 1) % 4
}

func (c *linChannel) service(r *Request, now int64) {
	tm := &c.cfg.Timing
	loc := c.loc(r)
	bi := c.bankIdx(r)
	b := &c.banks[bi]
	start := now
	if b.readyAt > start {
		start = b.readyAt
	}

	var activatedAt int64 = -1
	var finish int64

	if r.Kind == MitigAct {
		actAt := start
		if b.openRow >= 0 {
			if b.wrRecover > actAt {
				actAt = b.wrRecover
			}
			actAt += tm.TRP
			c.openBanks--
		}
		if t := b.lastAct + tm.TRC; t > actAt {
			actAt = t
		}
		if t := c.fawReady(loc.Rank); t > actAt {
			actAt = t
		}
		b.lastAct = actAt
		b.openRow = -1
		b.readyAt = actAt + tm.TRC
		c.fawPush(loc.Rank, actAt)
		c.stats.MitigActs++
		c.stats.Activates++
		activatedAt = actAt
		finish = actAt + tm.TRC
	} else {
		isWrite := r.Kind == WriteReq || r.Kind == MetaWrite
		var casAt int64
		if b.openRow == loc.Row {
			c.stats.RowHits++
			casAt = start
		} else {
			actAt := start
			if b.openRow >= 0 {
				if b.wrRecover > actAt {
					actAt = b.wrRecover
				}
				actAt += tm.TRP
			} else {
				c.openBanks++
			}
			if t := b.lastAct + tm.TRC; t > actAt {
				actAt = t
			}
			if t := c.fawReady(loc.Rank); t > actAt {
				actAt = t
			}
			b.lastAct = actAt
			b.openRow = loc.Row
			c.fawPush(loc.Rank, actAt)
			c.stats.Activates++
			activatedAt = actAt
			casAt = actAt + tm.TRCD
		}
		if !isWrite {
			wtr := tm.TWTRS
			if bi == c.lastWriteBank {
				wtr = tm.TWTR
			}
			if t := c.lastWriteEnd + wtr; t > casAt {
				casAt = t
			}
		}
		dataAt := casAt + tm.TCAS
		if c.busFreeAt > dataAt {
			dataAt = c.busFreeAt
		}
		c.busFreeAt = dataAt + tm.TBURST
		b.readyAt = dataAt + tm.TBURST - tm.TCAS
		if isWrite {
			b.wrRecover = dataAt + tm.TBURST + tm.TWR
			c.lastWriteEnd = dataAt + tm.TBURST
			c.lastWriteBank = bi
		}
		finish = dataAt + tm.TBURST

		switch r.Kind {
		case ReadReq:
			finish += c.cfg.StaticLatency
			c.stats.Reads++
			c.stats.ReadLatSum += finish - r.Arrive
		case WriteReq:
			c.stats.Writes++
		case MetaRead:
			c.stats.MetaReads++
		case MetaWrite:
			c.stats.MetaWrites++
		}
	}

	if finish > c.stats.BusyUntil {
		c.stats.BusyUntil = finish
	}
	if r.OnFinish != nil {
		r.OnFinish(r, finish)
	}
	if activatedAt >= 0 && c.cfg.OnACT != nil {
		c.cfg.OnACT(c.cfg.Mem.GlobalRow(loc), r.Kind, activatedAt)
	}
}

// linMemory mirrors Memory over linChannels.
type linMemory struct {
	cfg      Config
	channels []*linChannel
	epochs   int64
}

func newLinMemory(cfg Config) *linMemory {
	m := &linMemory{cfg: cfg}
	for c := 0; c < cfg.Mem.Channels; c++ {
		m.channels = append(m.channels, newLinChannel(&m.cfg, c))
	}
	return m
}

func (m *linMemory) Submit(r *Request) bool {
	return m.channels[m.cfg.Mem.Decode(r.Line).Channel].submit(r)
}

func (m *linMemory) NextTime() int64 {
	t := Infinity
	for _, c := range m.channels {
		if c.nextAt < t {
			t = c.nextAt
		}
	}
	return t
}

// RunEpoch is the reference for Memory.RunEpoch: under the same
// horizon clamp it steps the earliest channel (lowest id on ties) one
// event at a time until every channel's next event is at or past the
// horizon, firing callbacks as each event happens. That is the order
// the epoch barrier's replay must reproduce.
func (m *linMemory) RunEpoch(limit int64) int64 {
	next := m.NextTime()
	if next == Infinity {
		return next
	}
	la := m.cfg.Timing.TCAS + m.cfg.Timing.TBURST + m.cfg.StaticLatency
	horizon := max(min(next+la, limit), next+1)
	m.epochs++
	for m.NextTime() < horizon {
		best := m.channels[0]
		for _, c := range m.channels[1:] {
			if c.nextAt < best.nextAt {
				best = c
			}
		}
		best.step()
	}
	return m.NextTime()
}

// NewRequest matches Memory.NewRequest; the reference never recycles.
func (m *linMemory) NewRequest() *Request { return &Request{} }

func (m *linMemory) Stats() Stats {
	var s Stats
	s.Epochs = m.epochs
	for _, c := range m.channels {
		s.Reads += c.stats.Reads
		s.Writes += c.stats.Writes
		s.MetaReads += c.stats.MetaReads
		s.MetaWrites += c.stats.MetaWrites
		s.MitigActs += c.stats.MitigActs
		s.Activates += c.stats.Activates
		s.RowHits += c.stats.RowHits
		s.Refreshes += c.stats.Refreshes
		s.ReadLatSum += c.stats.ReadLatSum
		s.DrainEnters += c.stats.DrainEnters
		s.DrainExits += c.stats.DrainExits
		s.ReadQFull += c.stats.ReadQFull
		s.WriteQFull += c.stats.WriteQFull
		s.ReadQDepth.Merge(c.stats.ReadQDepth)
		s.WriteQDepth.Merge(c.stats.WriteQDepth)
		s.MetaQDepth.Merge(c.stats.MetaQDepth)
		s.OpenBanks.Merge(c.stats.OpenBanks)
		if c.stats.BusyUntil > s.BusyUntil {
			s.BusyUntil = c.stats.BusyUntil
		}
	}
	return s
}

// reqSpec is one generated request, shared by both simulators (each
// takes its own Request instances from its NewRequest; the structs
// carry per-scheduler internal state and must not be shared).
type reqSpec struct {
	line   uint64
	kind   Kind
	arrive int64
}

// schedEvent is one observable scheduler action: a request completion
// (fin=true) or a row activation.
type schedEvent struct {
	fin    bool
	id     int64
	t      int64
	row    uint32
	kind   Kind
	refuse bool
}

type memLike interface {
	NewRequest() *Request
	Submit(*Request) bool
	NextTime() int64
	RunEpoch(limit int64) int64
}

// driveStream submits the specs in arrival order, each at its arrival
// time (driveLate with submit = arrive).
func driveStream(m memLike, setHook func(func(uint32, Kind, int64)), specs []reqSpec, afterEpoch func()) []schedEvent {
	late := make([]lateSpec, len(specs))
	for i, sp := range specs {
		late[i] = lateSpec{sp, sp.arrive}
	}
	return driveLate(m, setHook, late, nil, afterEpoch)
}

// lateSpec is a request handed to the controller at submit, arriving
// at reqSpec.arrive, which may lie before or after submit.
type lateSpec struct {
	reqSpec
	submit int64
}

// driveLate submits the specs in submit order, advancing the simulator
// through every event strictly before each submit time, then drains
// it, returning the full observable event log. Each epoch is bounded by
// the next submit time, the way sim.Run bounds it by the next core
// event. Requests come from the simulator's NewRequest, so on the
// indexed side they recycle through the pool, possibly onto another
// channel; a refused request is kept and carries the next spec.
// afterSubmit, when non-nil, runs after every Submit with the request
// and whether Submit accepted it; afterEpoch, when non-nil, after every
// RunEpoch.
func driveLate(m memLike, setHook func(func(uint32, Kind, int64)), specs []lateSpec, afterSubmit func(*Request, bool), afterEpoch func()) []schedEvent {
	var events []schedEvent
	setHook(func(row uint32, kind Kind, at int64) {
		events = append(events, schedEvent{row: row, kind: kind, t: at})
	})
	onFin := func(r *Request, f int64) {
		events = append(events, schedEvent{fin: true, id: r.User, t: f})
	}
	advance := func(bound int64) {
		for t := m.NextTime(); t < bound; {
			t = m.RunEpoch(bound)
			if afterEpoch != nil {
				afterEpoch()
			}
		}
	}
	var r *Request
	for i, sp := range specs {
		advance(sp.submit)
		if r == nil {
			r = m.NewRequest()
		}
		r.Line, r.Kind, r.Arrive, r.User, r.OnFinish = sp.line, sp.kind, sp.arrive, int64(i), onFin
		accepted := m.Submit(r)
		if !accepted {
			events = append(events, schedEvent{refuse: true, id: int64(i)})
		}
		if afterSubmit != nil {
			afterSubmit(r, accepted)
		}
		if accepted {
			r = nil
		}
	}
	advance(Infinity)
	return events
}
