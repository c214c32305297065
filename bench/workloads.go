package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scale is the footprint divisor every workload runs at: the paper's
// configuration (sim.Default: 8 cores, T_RH 500, the real 64 ms window)
// at the scale `make bench-json` uses.
const scale = 64

// sweepWorkloads spans the cost range of the suite: cells of bc_t take
// about 40 times as long as cells of leela, so LPT packing matters.
var sweepWorkloads = []string{"parest", "cactuBSSN", "bc_t", "bwaves", "xz", "omnetpp", "GUPS", "leela"}

// sweepSchemes are swept with the non-secure baseline exp.Sweep adds,
// giving 4 x 8 = 32 cells per sweep.
var sweepSchemes = []exp.Variant{
	{Name: "graphene", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackGraphene }},
	{Name: "cra-64KB", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackCRA; c.CRACacheBytes = 64 << 10 }},
	{Name: "hydra", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra }},
}

// busRetain bounds the events one sweep's bus keeps for the read-back
// after the sweep. A 32-cell sweep publishes about a hundred: queued,
// started and done per simulated cell, cached per replayed one. The
// ring is allocated per sweep, so a larger one would add to every
// sweep's allocation.
const busRetain = 256

// A workloadDef is one closed loop: a single goroutine issues the next
// unit of work (one cell, or one sweep) only after the previous one
// has finished.
type workloadDef struct {
	name string
	// open builds the workload's unit runner for a seed, doing any
	// untimed preparation, whose output it hands to chk; scratch is a
	// directory it may write to.
	open func(seed uint64, scratch string, chk *checker) (unitRunner, error)
}

// unitRunner runs one unit of work. tr is nil on untraced runs.
type unitRunner interface {
	unit(tr *tracer, id int) unitResult
}

var workloads = []workloadDef{
	// Hot rows drive GCT saturation, RCC/RCT lookups, metadata submits
	// and mitigations: tracker, metadata and epoch-width changes show.
	{name: "cell-hydra-parest", open: func(seed uint64, _ string, _ *checker) (unitRunner, error) {
		return newCellLoop("parest", sim.TrackHydra, seed)
	}},
	// MPKI 84.6 saturates the scheduler, address decode and core
	// backpressure without ever calling a tracker: tracker changes
	// must not move it.
	{name: "cell-baseline-bc_t", open: func(seed uint64, _ string, _ *checker) (unitRunner, error) {
		return newCellLoop("bc_t", sim.TrackNone, seed)
	}},
	// Cells differ 40x in cost and include CRA and Graphene, so LPT
	// packing, the baseline trackers and the durable cache write of
	// every cell all do real work.
	{name: "campaign-cold", open: func(seed uint64, scratch string, _ *checker) (unitRunner, error) {
		return &campaign{opts: sweepOptions(seed), root: scratch}, nil
	}},
	// The read side of the storage layer with zero simulation: disk
	// hits, JSON decode, atime rewrite and report build. Simulator
	// optimisations must not move it. BENCHMARK.json leaves it out: its
	// run-to-run spread is wider than any regression bound may be.
	{name: "campaign-warm", open: openWarm},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// unitResult is what one unit of work did and how long it took.
type unitResult struct {
	wall  time.Duration // the unit's host wall-clock time
	setup time.Duration // host time before its first work started
	cells int           // cells the unit delivered, simulated or replayed
	insts int64         // simulated instructions those cells report

	digest string // SHA-256 of the unit's canonical output
	failed int    // cells that failed

	work  work               // exact work of the cells simulated in this unit
	cache harness.CacheStats // result-cache traffic (campaigns)
	waits []time.Duration    // per-cell queued->started waits (campaigns)
	busy  time.Duration      // summed started->done worker time (campaigns)
	mem   memDelta           // allocation during the unit
}

// work sums exact counts taken from the Results of simulated cells.
type work struct {
	cells                      int64
	insts, acts                int64
	reads, writes, metaLines   int64
	mitigActs, rowHits         int64
	readLatSum                 int64
	readqFull, writeqFull      int64
	epochs                     int64
	hydraActs, gctOnly, rccHit int64
	rctAccess                  int64
}

func (w *work) add(r sim.Result) {
	w.cells++
	w.insts += r.Insts
	for _, n := range r.ActsByKind {
		w.acts += n
	}
	m := r.Mem
	w.reads += m.Reads
	w.writes += m.Writes
	w.metaLines += m.MetaReads + m.MetaWrites
	w.mitigActs += m.MitigActs
	w.rowHits += m.RowHits
	w.readLatSum += m.ReadLatSum
	w.readqFull += m.ReadQFull
	w.writeqFull += m.WriteQFull
	w.epochs += m.Epochs
	if h := r.Hydra; h != nil {
		w.hydraActs += h.Acts
		w.gctOnly += h.GCTOnly
		w.rccHit += h.RCCHit
		w.rctAccess += h.RCTAccess
	}
}

func (w *work) plus(o work) {
	w.cells += o.cells
	w.insts += o.insts
	w.acts += o.acts
	w.reads += o.reads
	w.writes += o.writes
	w.metaLines += o.metaLines
	w.mitigActs += o.mitigActs
	w.rowHits += o.rowHits
	w.readLatSum += o.readLatSum
	w.readqFull += o.readqFull
	w.writeqFull += o.writeqFull
	w.epochs += o.epochs
	w.hydraActs += o.hydraActs
	w.gctOnly += o.gctOnly
	w.rccHit += o.rccHit
	w.rctAccess += o.rctAccess
}

// requests counts the requests the memory system served: demand,
// metadata and victim-refresh activations.
func (w work) requests() int64 { return w.reads + w.writes + w.metaLines + w.mitigActs }

func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// cellLoop runs one simulation per unit: sim.New then Run.
type cellLoop struct{ cfg sim.Config }

func newCellLoop(profile string, tracker sim.TrackerKind, seed uint64) (*cellLoop, error) {
	p, err := workload.ByName(profile)
	if err != nil {
		return nil, err
	}
	cfg := sim.Default(p)
	cfg.Scale = scale
	cfg.Tracker = tracker
	cfg.Seed = seed
	return &cellLoop{cfg: cfg}, nil
}

func (c *cellLoop) unit(tr *tracer, id int) unitResult {
	u := unitResult{cells: 1}
	cell := strconv.Itoa(id)
	var (
		s   *sim.System
		res sim.Result
		err error
	)
	t0 := time.Now()
	tr.do("setup", cell, 0, func() { s, err = sim.New(c.cfg) })
	t1 := time.Now()
	if err == nil {
		tr.do("run", cell, 0, func() { res, err = s.Run() })
	}
	u.wall, u.setup = time.Since(t0), t1.Sub(t0)
	if err == nil {
		u.digest, err = digestJSON(res)
	}
	if err != nil || res.Cycles <= 0 {
		u.failed = 1
		return u
	}
	u.insts = res.Insts
	u.work.add(res)
	return u
}

func sweepOptions(seed uint64) exp.Options {
	return exp.Options{
		Scale:       scale,
		Workloads:   sweepWorkloads,
		Parallelism: runtime.NumCPU(),
		Seed:        exp.SeedOf(seed),
	}
}

// campaign runs one sweep per unit through exp.Sweep with an on-disk
// cell cache: a fresh directory under root per sweep when dir is
// empty, otherwise the directory dir (filled once by openWarm).
type campaign struct {
	opts       exp.Options
	root, dir  string
	wantCached bool // every cell must come from the cache
}

// openWarm fills a cache directory with one untimed sweep and returns
// a campaign that replays it.
func openWarm(seed uint64, scratch string, chk *checker) (unitRunner, error) {
	dir, err := os.MkdirTemp(scratch, "warm-")
	if err != nil {
		return nil, err
	}
	c := &campaign{opts: sweepOptions(seed), dir: dir}
	chk.check(c.unit(nil, -1))
	c.wantCached = true
	return c, nil
}

func (c *campaign) unit(tr *tracer, id int) unitResult {
	u := unitResult{cells: len(sweepWorkloads) * (len(sweepSchemes) + 1)}
	dir := c.dir
	if dir == "" {
		d, err := os.MkdirTemp(c.root, "cold-")
		if err != nil {
			u.failed = u.cells
			return u
		}
		defer os.RemoveAll(d)
		dir = d
	}
	sweep := strconv.Itoa(id)
	var (
		cache *harness.CellCache
		rep   *exp.PerfReport
		err   error
	)
	t0 := time.Now()
	tr.do("cache.open", sweep, 0, func() { cache, err = harness.NewCellCache(dir) })
	opened := time.Since(t0)
	if err != nil {
		u.failed = u.cells
		return u
	}
	o := c.opts
	o.Cache = cache
	busStart := time.Now()
	o.Bus = harness.NewBus(busRetain)
	sweepStart := time.Now()
	span := tr.do("sweep", sweep, 0, func() { rep, err = exp.Sweep(o, "bench", sweepSchemes) })
	u.wall = time.Since(t0)
	events := drainBus(o.Bus)
	if err != nil {
		u.failed = u.cells
		return u
	}

	// Lifecycle times per cell from the bus; every event stamps its
	// offset from the bus's creation.
	at := func(e harness.CellEvent) time.Time { return busStart.Add(time.Duration(e.TSec * float64(time.Second))) }
	first := time.Time{}
	queued := map[string]time.Time{}
	started := map[string]time.Time{}
	for _, e := range events {
		switch e.Kind {
		case harness.EvQueued:
			queued[e.Key] = at(e)
		case harness.EvStarted, harness.EvCached:
			if first.IsZero() {
				first = at(e)
			}
			if e.Kind == harness.EvStarted {
				started[e.Key] = at(e)
				u.waits = append(u.waits, at(e).Sub(queued[e.Key]))
				tr.add("wait", e.Key, span, queued[e.Key], at(e))
			}
		case harness.EvDone:
			u.busy += at(e).Sub(started[e.Key])
			tr.add("work", e.Key, span, started[e.Key], at(e))
		}
	}
	if first.IsZero() {
		first = sweepStart
	}
	u.setup = opened + first.Sub(sweepStart)
	u.cache = rep.Cache

	want := obsv.CellOK
	if c.wantCached {
		want = obsv.CellCached
	}
	for _, st := range rep.Cells {
		if st.Status != want {
			u.failed++
			continue
		}
		parts := strings.Split(st.Key, "/") // target/variant/workload
		res := rep.Results[parts[len(parts)-2]][parts[len(parts)-1]]
		u.insts += res.Insts
		if st.Status == obsv.CellOK {
			u.work.add(res)
		}
	}
	if len(rep.Cells) != u.cells {
		u.failed = u.cells
	}
	if d, err := digestJSON(rep.Norm); err == nil {
		u.digest = d
	}
	return u
}

// drainBus closes a finished sweep's bus and returns the events it
// retained, in publish order.
func drainBus(b *harness.Bus) []harness.CellEvent {
	ch, cancel := b.Subscribe(busRetain, true)
	defer cancel()
	b.Close()
	var out []harness.CellEvent
	for e := range ch {
		out = append(out, e)
	}
	return out
}
