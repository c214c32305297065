// Package exp is the experiment harness: one runner per table and
// figure of the paper's evaluation (Section 6 plus the motivation
// figures of Section 2). Each runner sweeps the 36 workloads across
// the relevant tracker configurations in parallel, normalizes against
// the non-secure baseline, and produces a formatted report with the
// same rows/series the paper plots.
package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options control a harness run.
type Options struct {
	// Scale divides every workload footprint (and tracker structures)
	// so a figure regenerates in bounded time; 1 reproduces the full
	// 64 ms window. Default 16.
	Scale float64
	// TRH is the target row-hammer threshold (default 500).
	TRH int
	// Workloads restricts the sweep to the named workloads (default:
	// all 36).
	Workloads []string
	// Parallelism bounds concurrent simulations (default: NumCPU).
	Parallelism int
	// Seed makes runs reproducible. Nil selects the default seed (1);
	// any explicitly set value — including 0 — is used as-is, so seed
	// 0 is reproducible as itself (use SeedOf to build the pointer).
	Seed *uint64

	// Target names the experiment target; it prefixes every campaign
	// cell key ("target/variant/workload") so cell events and run
	// reports from different targets never collide. Default "sweep".
	Target string
	// CellTimeout bounds each sweep cell's wall-clock time; 0 leaves
	// cells unbounded.
	CellTimeout time.Duration
	// Cache, when non-nil, memoizes cell results by content-addressed
	// config hash (sim.Config.CacheKey): identical cells across targets
	// of one process — e.g. the non-secure baseline every figure
	// re-simulates — run once and replay everywhere else, and with a
	// disk-backed cache across invocations too, which is how an
	// interrupted campaign resumes and a failed cell is recomputed.
	Cache *harness.CellCache
	// Bus, when non-nil, receives a hydra-cell-event/v1 CellEvent for
	// every cell lifecycle transition, tagged with scheme, workload and
	// seed — the feed behind the live progress line and the /events
	// NDJSON stream (obsv.Server). The caller owns the bus lifetime.
	Bus *harness.Bus
	// Live, when non-nil, accumulates every finished cell's metric
	// snapshot as the campaign runs (counters summed, gauges maxed,
	// histograms merged) plus the campaign.cells.* progress counters,
	// so an HTTP /metrics scrape mid-campaign sees current totals
	// instead of waiting for the run report.
	Live *obsv.Registry
	// Ctx, when non-nil, is the campaign context: cancelling it aborts
	// in-flight cells at their next progress poll and fails the sweep
	// with the cancellation cause. The binaries pass the signal context
	// from cli.Main here so SIGINT/SIGTERM shuts a campaign down
	// gracefully (a disk cache already holds every cacheable cell that
	// finished). Nil means context.Background() — never cancelled.
	Ctx context.Context
}

// SeedOf returns a pointer to seed, for Options.Seed literals.
func SeedOf(seed uint64) *uint64 { return &seed }

// ctx returns the campaign context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 16
	}
	if o.TRH <= 0 {
		o.TRH = 500
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.Seed == nil {
		o.Seed = SeedOf(1)
	}
	return o
}

// seed returns the effective workload seed.
func (o Options) seed() uint64 {
	if o.Seed == nil {
		return 1
	}
	return *o.Seed
}

// profiles resolves the workload list.
func (o Options) profiles() ([]workload.Profile, error) {
	if len(o.Workloads) == 0 {
		return workload.Profiles(), nil
	}
	var ps []workload.Profile
	for _, name := range o.Workloads {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// baseConfig builds the common simulation config for a profile.
func (o Options) baseConfig(p workload.Profile) sim.Config {
	cfg := sim.Default(p)
	cfg.Scale = o.Scale
	cfg.TRH = o.TRH
	cfg.Seed = o.seed()
	return cfg
}

// Variant is one tracker configuration in a sweep.
type Variant struct {
	Name   string
	Mutate func(*sim.Config)
}

// target returns the cell-key prefix.
func (o Options) target() string {
	if o.Target == "" {
		return "sweep"
	}
	return o.Target
}

// DecodeResult rebuilds a sim.Result from a cache entry; install it as
// CellCache.Decode so sweep cells replay from a cache directory.
func DecodeResult(key string, raw json.RawMessage) (any, error) {
	var r sim.Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	return r, nil
}

// cellIdentity resolves a cell's static cost estimate and, when the
// campaign has a cache (the hash's one reader), its content-addressed
// hash, by building its full config in cfg outside the worker pool.
// A config handed to Mutate escapes to the heap, so a campaign passes
// one cfg for all its cells rather than allocate one per cell.
// Mutate is arbitrary caller code and may panic; a panicking variant
// must fail as its own isolated cell (with the stack captured by the
// harness), not here — so this recovers and returns the zero identity,
// leaving the cell uncacheable and default-ordered.
func cellIdentity(o Options, p workload.Profile, v Variant, cfg *sim.Config) (hash string, est float64) {
	defer func() {
		if recover() != nil {
			hash, est = "", 0
		}
	}()
	*cfg = o.baseConfig(p)
	v.Mutate(cfg)
	if o.Cache != nil {
		hash, _ = cfg.CacheKey()
	}
	return hash, estCost(*cfg)
}

// estCost is the static cost model for LPT scheduling: simulated work
// is roughly cores × effective window length, weighted by how expensive
// the tracker makes each activation (CRA's memory-resident counters
// dominate; Hydra adds RCT traffic only past the GCT threshold). Scaled
// to pseudo-seconds at a nominal 3.2 GHz core; only the ordering
// matters.
func estCost(cfg sim.Config) float64 {
	window := float64(cfg.WindowCycles)
	if window <= 0 {
		window = float64(memsim.WindowCycles)
	}
	scale := cfg.Scale
	if scale < 1 {
		scale = 1
	}
	weight := 1.0
	switch cfg.Tracker {
	case sim.TrackCRA:
		weight = 2.5
	case sim.TrackHydra, sim.TrackHydraNoGCT, sim.TrackHydraNoRCC:
		weight = 1.5
	case sim.TrackGraphene, sim.TrackOCPR, sim.TrackSTART, sim.TrackDAPPER:
		weight = 1.3
	case sim.TrackPARA, sim.TrackMINT:
		weight = 1.1
	}
	return float64(cfg.Cores) * (window / scale) * weight / 3.2e9
}

// liveObserver builds the per-cell completion hook that keeps the live
// registry current: each settled cell bumps a campaign.cells.* counter
// and, when it carries a simulation result, merges the run's metric
// snapshot so /metrics scrapes mid-campaign reflect every finished
// cell. Returns nil when no live registry is configured, keeping the
// harness hot path free of the extra call.
func (o Options) liveObserver() func(harness.CellResult) {
	if o.Live == nil {
		return nil
	}
	live := o.Live
	return func(r harness.CellResult) {
		switch {
		case r.Err != nil:
			live.Count("campaign.cells.failed", 1)
		case r.Cached:
			live.Count("campaign.cells.cached", 1)
		default:
			live.Count("campaign.cells.ok", 1)
		}
		if res, ok := r.Value.(sim.Result); ok && res.Metrics != nil {
			live.Merge(res.Metrics)
		}
	}
}

// runMatrix executes every (variant x profile) simulation as a cell of
// a resilient harness campaign and returns results[variant][workload]
// plus the per-cell verdicts and the cache traffic attributable to
// this campaign (zero when o.Cache is nil). A cell failure (error,
// panic, timeout) does not fail the matrix: the entry is simply absent
// from the result maps and its CellStatus records the error. Callers
// decide how much of the matrix they require.
func runMatrix(o Options, profiles []workload.Profile, variants []Variant) (map[string]map[string]sim.Result, []obsv.CellStatus, harness.CacheStats, error) {
	if o.Cache != nil && o.Cache.Decode == nil {
		o.Cache.Decode = DecodeResult
	}
	statsBefore := o.Cache.Stats()
	var cells []harness.Cell
	identity := new(sim.Config)
	for _, v := range variants {
		for _, p := range profiles {
			v, p := v, p
			hash, est := cellIdentity(o, p, v, identity)
			cells = append(cells, harness.Cell{
				Key:      o.target() + "/" + v.Name + "/" + p.Name,
				CacheKey: hash,
				EstCost:  est,
				Tags: map[string]string{
					"target":   o.target(),
					"scheme":   v.Name,
					"workload": p.Name,
					"seed":     fmt.Sprint(o.seed()),
				},
				Run: func(ctx context.Context, env harness.Env) (any, error) {
					cfg := o.baseConfig(p)
					v.Mutate(&cfg)
					cfg.Ctx = ctx
					cfg.Progress = env.Progress
					res, err := sim.Run(cfg)
					if err != nil {
						return nil, err
					}
					return res, nil
				},
			})
		}
	}
	var droppedBefore int64
	if o.Bus != nil {
		droppedBefore = o.Bus.Dropped()
	}
	hres, err := harness.RunCampaign(o.ctx(), cells, harness.Options{
		Workers:     o.Parallelism,
		CellTimeout: o.CellTimeout,
		Cache:       o.Cache,
		Bus:         o.Bus,
		OnCellDone:  o.liveObserver(),
	})
	if o.Bus != nil && o.Live != nil {
		if d := o.Bus.Dropped() - droppedBefore; d > 0 {
			o.Live.Count("campaign.events.dropped", d)
		}
	}
	if err != nil {
		return nil, nil, harness.CacheStats{}, err
	}

	out := make(map[string]map[string]sim.Result, len(variants))
	for _, v := range variants {
		out[v.Name] = make(map[string]sim.Result, len(profiles))
	}
	statuses := make([]obsv.CellStatus, 0, len(hres))
	i := 0
	for _, v := range variants {
		for _, p := range profiles {
			st, res, ok := cellStatus[sim.Result](hres[i])
			i++
			if ok {
				if st.Status == obsv.CellOK {
					// The simulator's exact count replaces the
					// harness-observed progress.
					st.Cycles = res.Cycles
				}
				out[v.Name][p.Name] = res
			}
			statuses = append(statuses, st)
		}
	}
	return out, statuses, o.Cache.Stats().Delta(statsBefore), nil
}

// cellStatus maps a cell's harness verdict to its run-report entry and
// returns the cell's value when the cell completed with a T. A cell
// that errored, panicked or timed out is failed with its error, and so
// is one whose value is not a T.
func cellStatus[T any](r harness.CellResult) (obsv.CellStatus, T, bool) {
	st := obsv.CellStatus{
		Key:        r.Key,
		Status:     obsv.CellOK,
		Panicked:   r.Panicked,
		ElapsedSec: r.Elapsed.Seconds(),
		Cycles:     r.Cycles,
	}
	v, ok := r.Value.(T)
	switch {
	case r.Err != nil:
		st.Status, st.Error = obsv.CellFailed, r.Err.Error()
	case !ok:
		st.Status, st.Error = obsv.CellFailed, fmt.Sprintf("exp: cell value is %T, want %T", r.Value, v)
	case r.Cached:
		st.Status = obsv.CellCached
	}
	return st, v, st.Status != obsv.CellFailed
}

// lookup fetches a completed cell from a matrix, failing with the
// cell's recorded error when the campaign lost it. Targets that cannot
// tolerate holes (ratio tables) gate through this.
func lookup(res map[string]map[string]sim.Result, cells []obsv.CellStatus, variant, wl string) (sim.Result, error) {
	if r, ok := res[variant][wl]; ok {
		return r, nil
	}
	for _, c := range cells {
		if c.Status == obsv.CellFailed && strings.HasSuffix(c.Key, "/"+variant+"/"+wl) {
			return sim.Result{}, fmt.Errorf("exp: cell %s failed: %s", c.Key, c.Error)
		}
	}
	return sim.Result{}, fmt.Errorf("exp: missing result for %s/%s", variant, wl)
}

// PerfReport holds normalized performance per workload and scheme,
// the format of Figures 2, 5 and 8.
type PerfReport struct {
	Title    string
	Schemes  []string // ordered, excluding the baseline
	Profiles []workload.Profile
	// Norm[scheme][workload] is performance normalized to the
	// non-secure baseline (1.0 = no slowdown).
	Norm map[string]map[string]float64
	// Results[scheme][workload] retains the full simulation results
	// (including the baseline), so run reports can export the metric
	// snapshots alongside the normalized performance. Failed cells are
	// absent.
	Results map[string]map[string]sim.Result
	// Cells records every campaign cell's verdict, including failed and
	// cache-replayed cells.
	Cells []obsv.CellStatus
	// Cache is the result-cache traffic of this sweep (zero value when
	// no cache was configured): how many cells were replayed versus
	// simulated, and the disk bytes moved.
	Cache harness.CacheStats
}

// Sweep runs the non-secure baseline plus the given scheme variants
// over the configured workloads and normalizes: the exported form of
// the sweep underlying every perf figure, usable for custom campaigns
// and for fault-injection tests (a variant whose Mutate or simulation
// fails surfaces as a failed cell, never as a lost sweep).
func Sweep(o Options, title string, schemes []Variant) (*PerfReport, error) {
	return perfReport(o.withDefaults(), title, schemes)
}

// baselineVariant is the non-secure system every perf sweep normalizes
// against.
var baselineVariant = Variant{Name: "baseline", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackNone }}

// perfReport runs baseline plus schemes and normalizes. Cells that
// failed — or produced a non-positive cycle count, which would poison
// the geomeans — are excluded from Norm and flagged in Cells; scheme
// cells that simulated fine but lost their baseline (so there is
// nothing to divide by) are marked baseline-missing, not failed; the
// report only fails when no baseline cell survived at all, since then
// there is nothing to normalize against.
func perfReport(o Options, title string, schemes []Variant) (*PerfReport, error) {
	profiles, err := o.profiles()
	if err != nil {
		return nil, err
	}
	variants := append([]Variant{baselineVariant}, schemes...)
	res, cells, cstats, err := runMatrix(o, profiles, variants)
	if err != nil {
		return nil, err
	}
	// A run that completes with no cycles (e.g. an empty trace source)
	// is not a usable sample: record it as a failed cell rather than
	// letting 0 or Inf reach the normalization.
	for _, v := range variants {
		for _, p := range profiles {
			if r, ok := res[v.Name][p.Name]; ok && r.Cycles <= 0 {
				delete(res[v.Name], p.Name)
				markCell(cells, o.target()+"/"+v.Name+"/"+p.Name, obsv.CellFailed,
					fmt.Sprintf("exp: non-positive cycle count %d (empty run)", r.Cycles))
			}
		}
	}
	if len(res["baseline"]) == 0 {
		return nil, fmt.Errorf("exp: %s: every baseline cell failed; nothing to normalize against", title)
	}
	rep := &PerfReport{Title: title, Profiles: profiles, Norm: map[string]map[string]float64{}, Results: res, Cells: cells, Cache: cstats}
	for _, v := range schemes {
		rep.Schemes = append(rep.Schemes, v.Name)
		rep.Norm[v.Name] = map[string]float64{}
		for _, p := range profiles {
			base, okb := res["baseline"][p.Name]
			got, okg := res[v.Name][p.Name]
			if okg && !okb {
				// The scheme cell is healthy; it just has no denominator.
				// A distinct status keeps "this scheme broke" separable
				// from "the baseline broke" in chaos/resilience reports.
				markCell(cells, o.target()+"/"+v.Name+"/"+p.Name, obsv.CellBaselineMissing,
					fmt.Sprintf("exp: baseline cell for workload %s failed; cannot normalize", p.Name))
				continue
			}
			if !okb || !okg {
				continue
			}
			rep.Norm[v.Name][p.Name] = float64(base.Cycles) / float64(got.Cycles)
		}
	}
	return rep, nil
}

// markCell rewrites the named cell's status and error in place.
func markCell(cells []obsv.CellStatus, key, status, msg string) {
	for i := range cells {
		if cells[i].Key == key {
			cells[i].Status = status
			cells[i].Error = msg
			return
		}
	}
}

// SuiteGeomeans aggregates a scheme's normalized performance per
// suite, plus GUPS alone and ALL, matching the paper's x-axis groups.
// Workloads whose cells failed are skipped; a group with no surviving
// workloads reports 0 (rendered as "-" by Format).
func (r *PerfReport) SuiteGeomeans(scheme string) map[string]float64 {
	bySuite := map[string][]float64{}
	var all []float64
	for _, p := range r.Profiles {
		v, ok := r.Norm[scheme][p.Name]
		if !ok {
			continue
		}
		key := string(p.Suite)
		bySuite[key] = append(bySuite[key], v)
		all = append(all, v)
	}
	out := map[string]float64{}
	for s, xs := range bySuite {
		out[s] = stats.Geomean(xs)
	}
	out["ALL"] = stats.Geomean(all)
	return out
}

// Format renders the report as a text table, one row per workload plus
// suite geomeans, mirroring the figures' bar groups.
func (r *PerfReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "%-12s", "workload")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, " %14s", s)
	}
	b.WriteString("\n")
	for _, p := range r.Profiles {
		fmt.Fprintf(&b, "%-12s", p.Name)
		for _, s := range r.Schemes {
			if v, ok := r.Norm[s][p.Name]; ok {
				fmt.Fprintf(&b, " %14.3f", v)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteString("\n")
	}
	suites := r.suiteOrder()
	for _, su := range suites {
		fmt.Fprintf(&b, "%-12s", "GEO:"+su)
		for _, s := range r.Schemes {
			if v := r.SuiteGeomeans(s)[su]; v > 0 {
				fmt.Fprintf(&b, " %14.3f", v)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteString("\n")
	}
	if failed := FailedCells(r.Cells); len(failed) > 0 {
		fmt.Fprintf(&b, "FAILED CELLS (%d):\n", len(failed))
		for _, c := range failed {
			fmt.Fprintf(&b, "  %s: %s\n", c.Key, c.Error)
		}
	}
	return b.String()
}

func (r *PerfReport) suiteOrder() []string {
	seen := map[string]bool{}
	var order []string
	for _, p := range r.Profiles {
		if !seen[string(p.Suite)] {
			seen[string(p.Suite)] = true
			order = append(order, string(p.Suite))
		}
	}
	order = append(order, "ALL")
	return order
}

// FailedCells filters a campaign's cell verdicts down to the failures.
func FailedCells(cells []obsv.CellStatus) []obsv.CellStatus {
	var out []obsv.CellStatus
	for _, c := range cells {
		if c.Status == obsv.CellFailed {
			out = append(out, c)
		}
	}
	return out
}

// sortedKeys returns map keys in sorted order (stable output).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
