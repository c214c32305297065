package memsim

import (
	"math/bits"

	"repro/internal/dram"
	"repro/internal/obsv"
)

// bank is the per-bank timing state.
type bank struct {
	openRow int   // -1 when precharged
	readyAt int64 // earliest start of the next column activity
	lastAct int64 // last activation time (tRC spacing)
	// wrRecover is the earliest the bank may precharge after a write
	// burst (tWR write recovery). It gates only the precharge/activate
	// path: row-hit CAS commands after a write stream at burst rate.
	wrRecover int64
}

// channel is one memory controller: queues, banks, bus and refresh.
type channel struct {
	cfg *Config
	sh  *shared
	id  int

	banks   []bank
	faw     [][4]int64 // per rank: last four ACT times
	fawIdx  []int
	nextRef []int64 // per rank: next scheduled refresh

	busFreeAt int64
	// lastWriteEnd is when the most recent write burst left the data
	// bus and lastWriteBank which bank it targeted; a read CAS pays
	// the tWTR turnaround from it — the long value on the same bank,
	// the short one across banks (standing in for DDR4 bank groups).
	// Tracked per channel (bus granularity), which is exact for the
	// single-rank baseline.
	lastWriteEnd  int64
	lastWriteBank int

	mitigQ reqQueue
	readQ  reqQueue
	metaQ  reqQueue
	writeQ reqQueue

	seq        int64 // submission counter (Request.seq)
	draining   bool
	now        int64
	nextAt     int64
	dispatchAt int64 // earliest next scheduling decision (pacing)
	openBanks  int64 // banks with an open row (occupancy sampling)

	stats Stats
}

const (
	// starvationAge forces FCFS for a request stuck this long.
	starvationAge int64 = 4000
	// cmdGap spaces non-data commands (mitigation ACTs).
	cmdGap int64 = 4
	// metaPressure is the tracker's miss-buffer depth: when more
	// metadata transfers than this are outstanding, they take priority
	// over demand reads, modeling the pipeline stall a real controller
	// takes when its tracker buffer fills. Without this bound a
	// saturating tracker (CRA under a hot workload) would defer its
	// counter updates forever.
	metaPressure = 32
)

func newChannel(cfg *Config, sh *shared, id int) *channel {
	nBanks := cfg.Mem.RanksPerChannel * cfg.Mem.BanksPerRank
	c := &channel{
		cfg:     cfg,
		sh:      sh,
		id:      id,
		banks:   make([]bank, nBanks),
		faw:     make([][4]int64, cfg.Mem.RanksPerChannel),
		fawIdx:  make([]int, cfg.Mem.RanksPerChannel),
		nextRef: make([]int64, cfg.Mem.RanksPerChannel),
		nextAt:  Infinity,
	}
	c.mitigQ.init(nBanks, false)
	c.readQ.init(nBanks, true)
	c.metaQ.init(nBanks, true)
	c.writeQ.init(nBanks, true)
	for i := range c.banks {
		c.banks[i].openRow = -1
		c.banks[i].lastAct = -Infinity
	}
	// Queue-depth buckets cover the default capacities; deeper custom
	// queues land in the overflow bucket. Bounds are fixed so that
	// per-channel histograms merge in Memory.Stats.
	c.stats.ReadQDepth = obsv.NewHist(obsv.PowersOfTwo(64)...)
	c.stats.WriteQDepth = obsv.NewHist(obsv.PowersOfTwo(128)...)
	c.stats.MetaQDepth = obsv.NewHist(obsv.PowersOfTwo(64)...)
	c.stats.OpenBanks = obsv.NewHist(obsv.PowersOfTwo(32)...)
	for r := range c.faw {
		for j := range c.faw[r] {
			c.faw[r][j] = -Infinity
		}
		// Stagger refresh start per rank and channel a little so the
		// whole system does not refresh in lockstep. The stagger is
		// clamped modulo tREFI: large channel/rank counts must not
		// push a rank's first refresh beyond one extra window.
		c.nextRef[r] = cfg.Timing.TREFI + int64(id*997+r*511)%cfg.Timing.TREFI
	}
	return c
}

// globalRow returns the system-wide row a request targets.
func (c *channel) globalRow(r *Request) uint32 {
	return c.cfg.Mem.GlobalRow(dram.Loc{
		Channel: int(r.channel),
		Rank:    int(r.rank),
		Bank:    int(r.bank) & (c.cfg.Mem.BanksPerRank - 1),
		Row:     int(r.row),
	})
}

func (c *channel) queueFor(k Kind) *reqQueue {
	switch k {
	case MitigAct:
		return &c.mitigQ
	case ReadReq:
		return &c.readQ
	case MetaRead:
		return &c.metaQ
	default:
		return &c.writeQ
	}
}

func (c *channel) submit(r *Request) bool {
	switch r.Kind {
	case ReadReq:
		if c.readQ.len() >= c.cfg.ReadQCap {
			c.stats.ReadQFull++
			return false
		}
	case WriteReq:
		if c.writeQ.len() >= c.cfg.WriteQCap {
			c.stats.WriteQFull++
			return false
		}
	}
	c.seq++
	r.seq = c.seq
	c.queueFor(r.Kind).add(r, c.banks[r.bank].openRow, c.now)
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

func (c *channel) idle() bool {
	return c.mitigQ.len() == 0 && c.readQ.len() == 0 && c.metaQ.len() == 0 && c.writeQ.len() == 0
}

// promote moves every request that has arrived by now from the future
// list into its bank bucket.
func (c *channel) promote(q *reqQueue, now int64) {
	for r := q.future.head; r != nil && r.Arrive <= now; r = q.future.head {
		q.future.unlink(r)
		q.insertReady(r, c.banks[r.bank].openRow)
	}
}

// step processes one scheduling decision at c.nextAt.
func (c *channel) step() {
	now := c.nextAt
	c.now = now
	c.applyRefreshes(now)
	c.promote(&c.mitigQ, now)
	c.promote(&c.readQ, now)
	c.promote(&c.metaQ, now)
	c.promote(&c.writeQ, now)
	c.stats.ReadQDepth.Observe(int64(c.readQ.len()))
	c.stats.WriteQDepth.Observe(int64(c.writeQ.len()))
	c.stats.MetaQDepth.Observe(int64(c.metaQ.len()))
	c.stats.OpenBanks.Observe(c.openBanks)

	r, from := c.pick(now)
	if r == nil {
		c.nextAt = c.earliestArrival()
		if c.nextAt < c.dispatchAt {
			c.nextAt = c.dispatchAt
		}
		return
	}
	from.remove(r)
	kind := r.Kind // service may recycle r
	c.service(r, now)
	// Pace the next scheduling decision: command bandwidth for
	// bank-only activations; for data requests, stay a bounded
	// lookahead ahead of the data bus so queues hold requests the bus
	// cannot yet serve (realistic occupancy and backpressure).
	c.dispatchAt = now + cmdGap
	if kind != MitigAct {
		lookahead := c.cfg.Timing.TRP + c.cfg.Timing.TRCD + c.cfg.Timing.TCAS
		if t := c.busFreeAt - lookahead; t > c.dispatchAt {
			c.dispatchAt = t
		}
	}
	c.nextAt = c.dispatchAt
}

// applyRefreshes issues every rank refresh scheduled at or before now.
// The refresh occupies all banks of the rank for tRFC starting at its
// scheduled time, so refreshes caught up after an idle gap do not
// stack.
func (c *channel) applyRefreshes(now int64) {
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
				// The refresh's implicit precharge respects tWR.
				if bk.openRow >= 0 && bk.wrRecover > s {
					s = bk.wrRecover
				}
				bk.readyAt = s + c.cfg.Timing.TRFC
				if bk.openRow >= 0 {
					c.openBanks--
					bk.openRow = -1
					c.rowChanged(b)
				}
			}
			c.stats.Refreshes++
			if c.cfg.Trace.Enabled() {
				c.sh.events = append(c.sh.events, chanEvent{
					t: start, kind: evRefresh, row: uint32(c.id), aux: int64(rank),
				})
			}
			c.nextRef[rank] += c.cfg.Timing.TREFI
		}
	}
}

// rowChanged invalidates the cached row-hit candidates of every
// FR-FCFS queue for one bank, after its open row changed.
func (c *channel) rowChanged(bank int) {
	c.readQ.buckets[bank].invalidateHit()
	c.metaQ.buckets[bank].invalidateHit()
	c.writeQ.buckets[bank].invalidateHit()
}

// earliestArrival returns the next time any queued request arrives;
// only meaningful when pick found nothing ready.
func (c *channel) earliestArrival() int64 {
	t := Infinity
	for _, q := range [...]*reqQueue{&c.mitigQ, &c.readQ, &c.metaQ, &c.writeQ} {
		if q.readyN > 0 {
			return c.now
		}
		if f := q.earliestFuture(); f < t {
			t = f
		}
	}
	if t < c.now {
		t = c.now
	}
	return t
}

// pick chooses the next request: mitigation activations, then demand
// reads (or writes while draining), then metadata, then opportunistic
// writes.
func (c *channel) pick(now int64) (*Request, *reqQueue) {
	if r := c.mitigQ.oldestReady(); r != nil {
		return r, &c.mitigQ
	}
	wlen := c.writeQ.len()
	if wlen >= c.cfg.DrainHi {
		if !c.draining {
			c.stats.DrainEnters++
		}
		c.draining = true
	} else if wlen <= c.cfg.DrainLo {
		if c.draining {
			c.stats.DrainExits++
		}
		c.draining = false
	}
	if c.draining {
		if r := c.frfcfs(&c.writeQ, now); r != nil {
			return r, &c.writeQ
		}
	}
	if c.metaQ.len() > metaPressure {
		if r := c.frfcfs(&c.metaQ, now); r != nil {
			return r, &c.metaQ
		}
	}
	if r := c.frfcfs(&c.readQ, now); r != nil {
		return r, &c.readQ
	}
	if r := c.frfcfs(&c.metaQ, now); r != nil {
		return r, &c.metaQ
	}
	if r := c.frfcfs(&c.writeQ, now); r != nil {
		return r, &c.writeQ
	}
	return nil, nil
}

// frfcfs implements first-ready FCFS over the bank index: among
// arrived requests, prefer the one whose data can start earliest (row
// hits win over conflicts), breaking ties by submission order; a
// request older than starvationAge is served first regardless, oldest
// submission first. Only one candidate per bank can win — the cached
// oldest row-hit, else the bucket front — so the scan is over banks,
// not requests, and the live-bank mask skips the empty buckets.
func (c *channel) frfcfs(q *reqQueue, now int64) *Request {
	if q.readyN == 0 {
		return nil
	}
	if r := q.starvingPick(now); r != nil {
		return r
	}
	tm := &c.cfg.Timing
	penalty := tm.TRP + tm.TRCD
	var best *Request
	var bestEst int64
	for w, word := range q.live {
		for ; word != 0; word &= word - 1 {
			b := w<<6 + bits.TrailingZeros64(word)
			bk := &q.buckets[b]
			bank := &c.banks[b]
			est := bank.readyAt
			if est < now {
				est = now
			}
			cand := bk.bestHitFor(bank.openRow)
			if cand == nil {
				cand = bk.head
				est += penalty
			}
			if best == nil || est < bestEst || (est == bestEst && cand.seq < best.seq) {
				best, bestEst = cand, est
			}
		}
	}
	return best
}

func (c *channel) fawReady(rank int) int64 {
	return c.faw[rank][c.fawIdx[rank]] + c.cfg.Timing.TFAW
}

func (c *channel) fawPush(rank int, t int64) {
	c.faw[rank][c.fawIdx[rank]] = t
	c.fawIdx[rank] = (c.fawIdx[rank] + 1) % 4
}

// service executes one request, updating bank, bus and statistics,
// and buffering its completion and activation-hook events. A pooled
// request without a callback is recycled here.
func (c *channel) service(r *Request, now int64) {
	tm := &c.cfg.Timing
	bi := int(r.bank)
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
		if t := c.fawReady(int(r.rank)); t > actAt {
			actAt = t
		}
		b.lastAct = actAt
		if b.openRow >= 0 {
			b.openRow = -1
			c.rowChanged(bi)
		}
		b.readyAt = actAt + tm.TRC
		c.fawPush(int(r.rank), actAt)
		c.stats.MitigActs++
		c.stats.Activates++
		activatedAt = actAt
		finish = actAt + tm.TRC
	} else {
		isWrite := r.Kind == WriteReq || r.Kind == MetaWrite
		var casAt int64
		if b.openRow == int(r.row) {
			c.stats.RowHits++
			casAt = start
		} else {
			actAt := start
			if b.openRow >= 0 {
				// Precharge first: it must wait out any pending write
				// recovery on this bank.
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
			if t := c.fawReady(int(r.rank)); t > actAt {
				actAt = t
			}
			b.lastAct = actAt
			b.openRow = int(r.row)
			c.rowChanged(bi)
			c.fawPush(int(r.rank), actAt)
			c.stats.Activates++
			activatedAt = actAt
			casAt = actAt + tm.TRCD
		}
		if !isWrite {
			// Write-to-read turnaround: a read CAS must trail the last
			// write burst by tWTR (long same-bank, short otherwise).
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
			// Write recovery: the bank cannot precharge (and so cannot
			// open a new row) until tWR after the write burst leaves
			// the bus. Row-hit CAS traffic is not held up.
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
	// Side effects are buffered, not invoked: the epoch barrier replays
	// them (completion before activation hook, as the old synchronous
	// order had it). Only a callback needs a completion event; it
	// recycles a pooled request after the callback, so the pointer
	// stays valid for it. Any other pooled request recycles now.
	if r.OnFinish != nil {
		c.sh.events = append(c.sh.events, chanEvent{t: finish, kind: evFinish, r: r})
	}
	if activatedAt >= 0 && c.cfg.OnACT != nil {
		c.sh.events = append(c.sh.events, chanEvent{
			t: activatedAt, kind: evAct,
			row: c.globalRow(r), rkind: r.Kind,
		})
	}
	if r.pooled && r.OnFinish == nil {
		c.sh.release(r)
	}
}
