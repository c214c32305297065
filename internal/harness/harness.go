// Package harness is the resilient campaign runner: it executes sweep
// cells (one simulator configuration each) through a bounded worker
// pool and keeps the campaign alive when individual cells misbehave.
//
// Every cell is settled in one run, and failures are contained per
// cell, so a sweep of N cells always yields N verdicts:
//
//   - panics are recovered and converted to a *PanicError carrying the
//     panicking value and stack; the other cells keep running;
//   - a wall-clock timeout bounds each cell outright;
//   - completed cells are written to an optional content-addressed
//     cache (see CellCache), so a campaign rerun over the same cache
//     directory recomputes only the failed and missing cells.
//
// Cells cooperate through two channels: they honor ctx cancellation
// (the simulator polls it between events) and report simulated cycles
// via Env.Progress, which feeds CellResult.Cycles and the throttled
// progress events of a campaign Bus.
package harness

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError is a recovered cell panic, preserved with its stack.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("harness: cell panicked: %v", e.Value)
}

// Env is the environment the harness hands to a running cell.
type Env struct {
	// Progress reports the cell's simulated-cycle counter. Safe to call
	// from the cell's goroutine only; never nil.
	Progress func(cycle int64)
}

// Cell is one unit of campaign work.
type Cell struct {
	// Key identifies the cell in events and results; campaign keys
	// must be unique. The experiment layer uses "target/variant/workload".
	Key string
	// Run computes the cell. It must honor ctx cancellation and should
	// report progress via env.Progress. The returned value must be
	// JSON-marshalable when the cache has a disk tier.
	Run func(ctx context.Context, env Env) (any, error)
	// CacheKey is the cell's content-addressed identity — a hash of
	// everything that determines its outcome (see sim.Config.CacheKey).
	// Empty means uncacheable: the cell always runs. Unlike Key, cache
	// keys may repeat within a campaign (identical cells dedupe against
	// each other: the first computes, the rest replay).
	CacheKey string
	// Tags are opaque labels copied into every CellEvent the campaign
	// publishes for this cell (the experiment layer sets scheme,
	// workload and seed). Nil is fine; the harness never reads them.
	Tags map[string]string
	// EstCost is a static relative cost estimate used to order work
	// longest-first. Unitless; only comparisons between cells of one
	// campaign matter.
	EstCost float64
}

// CellResult is the verdict for one cell.
type CellResult struct {
	Key      string
	Value    any   // nil when Err != nil
	Err      error // nil on success
	Panicked bool  // the run panicked
	Cached   bool  // value replayed from the result cache; Run never called
	Elapsed  time.Duration
	// Cycles is the last simulated-cycle value the cell reported via
	// Env.Progress — how far a failed cell got, and a harness-level
	// cross-check for completed ones. Tracked only when the campaign
	// has a Bus; 0 otherwise (and for cached cells, which never run).
	Cycles int64
}

// Options tunes a campaign.
type Options struct {
	// Workers bounds pool concurrency (default GOMAXPROCS, at most the
	// number of cells).
	Workers int
	// CellTimeout is the wall-clock budget per cell (0 = unbounded).
	CellTimeout time.Duration
	// Cache, when non-nil, resolves cells by CacheKey before the workers
	// start (hits never enter the pool) and records each newly computed
	// cell's value. A failed cell stores nothing.
	Cache *CellCache
	// OnCellDone, when non-nil, observes each settled cell (cached,
	// succeeded, or failed). Called from worker goroutines; must be
	// safe for concurrent use.
	OnCellDone func(CellResult)
	// Bus, when non-nil, receives a structured CellEvent for every cell
	// lifecycle transition (queued, started, progress, cached, done,
	// failed), for live progress rendering and the obsv.Server
	// /events NDJSON stream. Publishing never blocks the worker pool.
	// The campaign does not close the bus — the caller owns its
	// lifetime (it may span several campaigns of one run).
	Bus *Bus
}

func (o Options) workers(cells int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunCampaign executes the cells and returns one result per cell, in
// input order. Individual cell failures are reported in their
// CellResult, never as the campaign error; the error return is
// reserved for malformed campaigns (duplicate or empty keys) and for
// campaign-level cancellation, in which case the partial results are
// still returned (unreached cells carry the cancellation error).
//
// With Options.Cache set, cells whose CacheKey resolves are settled
// before the worker pool starts (Cached=true, Run never called). The
// remaining work is dispatched longest-processing-time-first by
// Cell.EstCost, with or without a cache.
func RunCampaign(ctx context.Context, cells []Cell, opts Options) ([]CellResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if c.Key == "" {
			return nil, fmt.Errorf("harness: cell with empty key")
		}
		if c.Run == nil {
			return nil, fmt.Errorf("harness: cell %q has no Run", c.Key)
		}
		if seen[c.Key] {
			return nil, fmt.Errorf("harness: duplicate cell key %q", c.Key)
		}
		seen[c.Key] = true
	}

	results := make([]CellResult, len(cells))

	// Cache pre-pass: resolve content-addressed hits inline so they
	// never occupy a worker, then order the remaining cells longest-
	// processing-time-first to cut makespan — a long cell dispatched
	// last would otherwise run alone at the tail while the rest of the
	// pool idles. The generic stable sort allocates nothing.
	pending := make([]int, 0, len(cells))
	for i := range cells {
		if opts.Cache != nil && cells[i].CacheKey != "" {
			if v, ok := opts.Cache.Lookup(cells[i].CacheKey); ok {
				results[i] = CellResult{Key: cells[i].Key, Value: v, Cached: true}
				publishCell(opts.Bus, EvCached, cells[i], nil)
				if opts.OnCellDone != nil {
					opts.OnCellDone(results[i])
				}
				continue
			}
		}
		pending = append(pending, i)
	}
	slices.SortStableFunc(pending, func(a, b int) int { return cmp.Compare(cells[b].EstCost, cells[a].EstCost) })
	for _, i := range pending {
		publishCell(opts.Bus, EvQueued, cells[i], nil)
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.workers(len(pending)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				results[i] = runCell(ctx, cells[i], opts)
				if opts.OnCellDone != nil {
					opts.OnCellDone(results[i])
				}
			}
		}()
	}
feed:
	for _, i := range pending {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		cause := context.Cause(ctx)
		for i := range results {
			if results[i].Key == "" {
				results[i] = CellResult{Key: cells[i].Key, Err: fmt.Errorf("harness: campaign aborted: %w", cause)}
			}
		}
		return results, fmt.Errorf("harness: campaign aborted: %w", cause)
	}
	return results, nil
}

// cellObs is the per-cell observation state behind Env.Progress: the
// latest simulated-cycle value (for CellResult.Cycles and terminal
// events) plus the throttle for progress events on the bus. Allocated
// only when a campaign has a Bus, so a bare campaign's progress
// callback stays a no-op.
type cellObs struct {
	cell  Cell
	bus   *Bus
	start time.Time

	cycles  atomic.Int64
	lastPub atomic.Int64 // unix nanos of the last progress event, or of the start
}

// progressEvery throttles per-cell progress events on the bus: at most
// one per cell per interval, the first one interval after the start.
// The simulator reports once per 8,192 event-loop steps, so a report
// is rare enough to timestamp each one.
const progressEvery = 500 * time.Millisecond

// observe records a progress report and publishes a progress event
// once progressEvery has passed since the last one.
func (o *cellObs) observe(cycle int64) {
	o.cycles.Store(cycle)
	now := time.Now()
	last := o.lastPub.Load()
	if now.UnixNano()-last < int64(progressEvery) || !o.lastPub.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	o.bus.Publish(CellEvent{
		Kind: EvProgress, Key: o.cell.Key, Tags: o.cell.Tags,
		Cycles: cycle, ElapsedSec: now.Sub(o.start).Seconds(),
	})
}

// publishCell emits one lifecycle event for a cell (no-op without a
// bus); mut fills the kind-specific fields.
func publishCell(b *Bus, kind string, cell Cell, mut func(*CellEvent)) {
	if b == nil {
		return
	}
	e := CellEvent{Kind: kind, Key: cell.Key, Tags: cell.Tags}
	if mut != nil {
		mut(&e)
	}
	b.Publish(e)
}

// runCell settles one cell in a single run.
func runCell(ctx context.Context, cell Cell, opts Options) CellResult {
	start := time.Now()
	var obs *cellObs
	if opts.Bus != nil {
		obs = &cellObs{cell: cell, bus: opts.Bus, start: start}
		obs.lastPub.Store(start.UnixNano())
	}
	publishCell(opts.Bus, EvStarted, cell, nil)
	v, err := runGuarded(ctx, cell, opts, obs)
	res := CellResult{Key: cell.Key, Err: err, Elapsed: time.Since(start)}
	if err == nil {
		res.Value = v
		if opts.Cache != nil && cell.CacheKey != "" {
			// Best-effort: a failed disk write is counted in the cache
			// stats but never fails a computed cell.
			_ = opts.Cache.Store(cell.CacheKey, cell.Key, v)
		}
	} else {
		var pe *PanicError
		res.Panicked = errors.As(err, &pe)
	}
	if obs != nil {
		res.Cycles = obs.cycles.Load()
	}
	kind := EvDone
	if res.Err != nil {
		kind = EvFailed
	}
	publishCell(opts.Bus, kind, cell, func(e *CellEvent) {
		e.Cycles = res.Cycles
		e.ElapsedSec = res.Elapsed.Seconds()
		if res.Err != nil {
			e.Error = res.Err.Error()
		}
	})
	return res
}

// runGuarded runs the cell with panic recovery, the wall-clock
// timeout, and the bus progress sampler.
func runGuarded(ctx context.Context, cell Cell, opts Options, obs *cellObs) (v any, err error) {
	if opts.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, opts.CellTimeout,
			fmt.Errorf("harness: cell %q exceeded timeout %v", cell.Key, opts.CellTimeout))
		defer cancel()
	}
	progress := func(int64) {}
	if obs != nil {
		progress = obs.observe
	}
	defer func() {
		if r := recover(); r != nil {
			v = nil
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return cell.Run(ctx, Env{Progress: progress})
}
