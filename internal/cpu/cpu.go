// Package cpu models the paper's cores (Table 2): 8 out-of-order cores
// at 3.2 GHz with a 160-entry ROB and fetch/retire width 4, driven by
// instruction traces. The model is the standard trace-driven ROB-window
// approximation USIMM uses: non-memory instructions retire at full
// width, loads issue to memory when fetched, and fetch stalls when the
// oldest incomplete load falls out of the ROB window. Writes (LLC
// writebacks) are posted and never stall the core, except through
// memory-controller queue backpressure.
package cpu

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/workload"
)

// TraceSource produces a core's memory requests; *workload.Stream
// implements it.
type TraceSource interface {
	Next() (workload.Request, bool)
}

// Memory is the submission interface a core issues to;
// *memsim.Memory implements it, and the full-system simulator wraps
// it to interpose address remapping (row swaps) or throttling.
// NewRequest hands out requests from the controller's pool so the
// steady-state fetch loop allocates nothing.
type Memory interface {
	Submit(r *memsim.Request) bool
	NewRequest() *memsim.Request
}

// Config holds the core parameters.
type Config struct {
	ROB   int // reorder-buffer entries (160)
	Width int // fetch/retire width (4)
	// RetryBackoff is the delay before retrying a refused submission
	// (memory queue full).
	RetryBackoff int64
}

// DefaultConfig returns the Table 2 core.
func DefaultConfig() Config {
	return Config{ROB: 160, Width: 4, RetryBackoff: 32}
}

type outstandingRead struct {
	instIdx  int64
	finishAt int64 // -1 until the memory system reports completion
}

// Core is one trace-driven core.
type Core struct {
	id     int
	cfg    Config
	trace  TraceSource
	mem    Memory
	time   int64 // fetch clock
	nextAt int64

	// reads is a ring of the outstanding loads in issue order: the
	// oldest at readHead, readN live, power-of-two capacity. Retiring
	// advances the head instead of re-slicing, so a warm core never
	// reallocates it. retired counts the loads popped so far, so the
	// load issued n-th (from 0) sits at ring position n-retired.
	reads    []outstandingRead
	readHead int
	readN    int
	retired  int64
	blocked  bool // waiting for the oldest read's completion time

	pending   *memsim.Request // submission refused by a full queue
	exhausted bool
	finish    int64
	// onFin is the completion callback installed on every read; bound
	// once here so issuing a read does not allocate a closure.
	onFin func(r *memsim.Request, f int64)

	// Stats over the run. Insts, the instructions fetched so far, also
	// places each load in the ROB window.
	Insts    int64
	Reads    int64
	Writes   int64
	Retries  int64
	StallFor int64 // cycles spent blocked on the ROB window
}

// New creates a core reading from trace and issuing to mem.
func New(id int, cfg Config, trace TraceSource, mem Memory) (*Core, error) {
	if cfg.ROB <= 0 || cfg.Width <= 0 {
		return nil, fmt.Errorf("cpu: bad config %+v", cfg)
	}
	if trace == nil || mem == nil {
		return nil, fmt.Errorf("cpu: core %d needs a trace source and a memory", id)
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 32
	}
	c := &Core{id: id, cfg: cfg, trace: trace, mem: mem}
	c.onFin = c.readDone
	return c, nil
}

// readDone is the memory system's completion callback: r.User carries
// the load's issue number. r may be recycled the moment this returns,
// so only User is read.
func (c *Core) readDone(r *memsim.Request, f int64) {
	if i := r.User - c.retired; i >= 0 && i < int64(c.readN) {
		c.wake(int(i), f)
	}
}

// read returns the i-th oldest outstanding load.
func (c *Core) read(i int) *outstandingRead {
	return &c.reads[(c.readHead+i)&(len(c.reads)-1)]
}

// pushRead appends a load to the ring, doubling it when full.
func (c *Core) pushRead(r outstandingRead) {
	if c.readN == len(c.reads) {
		grown := make([]outstandingRead, max(16, 2*len(c.reads)))
		for i := 0; i < c.readN; i++ {
			grown[i] = *c.read(i)
		}
		c.reads, c.readHead = grown, 0
	}
	c.readN++
	*c.read(c.readN - 1) = r
}

// popRead retires the oldest load.
func (c *Core) popRead() {
	c.readHead = (c.readHead + 1) & (len(c.reads) - 1)
	c.readN--
	c.retired++
}

// MustNew is New for statically valid parameters.
func MustNew(id int, cfg Config, trace TraceSource, mem Memory) *Core {
	c, err := New(id, cfg, trace, mem)
	if err != nil {
		panic(err)
	}
	return c
}

// ID returns the core id.
func (c *Core) ID() int { return c.id }

// Done reports whether the trace is exhausted and all reads returned.
func (c *Core) Done() bool {
	return c.exhausted && c.pending == nil && c.readN == 0
}

// FinishTime returns the cycle at which the core completed everything;
// meaningful once Done.
func (c *Core) FinishTime() int64 { return c.finish }

// NextTime returns when the core can act next; Infinity while blocked
// on an unserviced read or when done.
func (c *Core) NextTime() int64 {
	if c.Done() || c.blocked {
		return memsim.Infinity
	}
	return c.nextAt
}

// wake is called by the memory system when the idx-th oldest read
// completes.
func (c *Core) wake(idx int, finish int64) {
	c.read(idx).finishAt = finish
	if c.blocked && idx == 0 {
		c.blocked = false
		c.nextAt = finish
		if c.time > c.nextAt {
			c.nextAt = c.time
		}
		if finish > c.time {
			c.StallFor += finish - c.time
		}
	}
}

// Step advances the core by one trace record (or one retry attempt).
func (c *Core) Step() {
	if c.time < c.nextAt {
		c.time = c.nextAt
	}
	if c.pending != nil {
		req := c.pending
		req.Arrive = c.time
		if !c.mem.Submit(req) {
			c.Retries++
			c.nextAt = c.time + c.cfg.RetryBackoff
			return
		}
		c.pending = nil
		c.nextAt = c.time
		return
	}

	rec, ok := c.trace.Next()
	if !ok {
		c.exhausted = true
		c.retireAll()
		return
	}

	// Fetch the gap instructions plus the memory instruction itself.
	c.time += int64((rec.Gap + c.cfg.Width) / c.cfg.Width)
	c.Insts += int64(rec.Gap) + 1

	// Enforce the ROB window: the oldest incomplete load must retire
	// before fetch may run further ahead than ROB instructions.
	for c.readN > 0 && c.read(0).instIdx < c.Insts-int64(c.cfg.ROB) {
		oldest := c.read(0)
		if oldest.finishAt < 0 {
			// Completion unknown: block until the memory system wakes us.
			c.blocked = true
			c.nextAt = memsim.Infinity
			return
		}
		if oldest.finishAt > c.time {
			c.StallFor += oldest.finishAt - c.time
			c.time = oldest.finishAt
		}
		c.popRead()
	}

	req := c.mem.NewRequest()
	req.Line = rec.Line
	req.Arrive = c.time
	if rec.Write {
		req.Kind = memsim.WriteReq
		c.Writes++
	} else {
		req.Kind = memsim.ReadReq
		c.Reads++
		// Identify the load by its issue number, which readDone maps
		// to its ring position without a search.
		req.User = c.retired + int64(c.readN)
		c.pushRead(outstandingRead{instIdx: c.Insts, finishAt: -1})
		req.OnFinish = c.onFin
	}
	if !c.mem.Submit(req) {
		// Keep the provisional ROB entry (for reads) and retry the
		// submission after a backoff; the completion callback finds
		// the entry by issue number either way.
		c.pending = req
		c.Retries++
		c.nextAt = c.time + c.cfg.RetryBackoff
		return
	}
	c.nextAt = c.time
}

// retireAll drains the remaining reads once the trace ends.
func (c *Core) retireAll() {
	for c.readN > 0 {
		oldest := c.read(0)
		if oldest.finishAt < 0 {
			c.blocked = true
			c.nextAt = memsim.Infinity
			return
		}
		if oldest.finishAt > c.time {
			c.time = oldest.finishAt
		}
		c.popRead()
	}
	c.finish = c.time
}

// Debug renders internal state for diagnostics.
func (c *Core) Debug() string {
	oldest := int64(-99)
	if c.readN > 0 {
		oldest = c.read(0).finishAt
	}
	return fmt.Sprintf("time=%d nextAt=%d blocked=%v exhausted=%v pending=%v reads=%d oldestFinish=%d insts=%d",
		c.time, c.nextAt, c.blocked, c.exhausted, c.pending != nil, c.readN, oldest, c.Insts)
}
