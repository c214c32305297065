// Package sim wires the full evaluation system of the paper together:
// 8 trace-driven cores (internal/cpu), the DDR4 memory system
// (internal/memsim), a row-hammer tracker (Hydra from internal/core or
// a baseline from internal/track), the victim-refresh mitigation
// policy, and the reserved DRAM region holding tracker metadata.
//
// Every row activation the memory controller performs — demand, victim
// refresh or metadata — is fed to the tracker; mitigations become
// victim-refresh activations (feeding back, the Half-Double defense)
// and tracker metadata accesses become memory traffic that competes
// with demand requests. Slowdowns therefore emerge from the same
// mechanisms as in the paper: bandwidth and bank contention.
package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/memsim"
	"repro/internal/mitigate"
	"repro/internal/obsv"
	"repro/internal/rh"
	"repro/internal/rngstream"
	"repro/internal/track"
	"repro/internal/workload"
)

// TrackerKind selects the tracking scheme.
type TrackerKind string

// Tracker kinds usable in full-system simulation.
const (
	TrackNone       TrackerKind = "none" // non-secure baseline
	TrackHydra      TrackerKind = "hydra"
	TrackHydraNoGCT TrackerKind = "hydra-nogct"
	TrackHydraNoRCC TrackerKind = "hydra-norcc"
	TrackGraphene   TrackerKind = "graphene"
	TrackCRA        TrackerKind = "cra"
	TrackOCPR       TrackerKind = "ocpr"
	TrackPARA       TrackerKind = "para"
	TrackSTART      TrackerKind = "start"
	TrackMINT       TrackerKind = "mint"
	TrackDAPPER     TrackerKind = "dapper"
)

// Config describes one full-system run.
type Config struct {
	Mem     dram.Config
	Profile workload.Profile

	// Scale divides the workload footprint and, unless
	// KeepStructSize is set, the tracker structures, preserving the
	// footprint-to-structure ratios of the paper while simulating a
	// fraction of a 64 ms window.
	Scale          float64
	KeepStructSize bool

	Cores int
	TRH   int
	Seed  uint64

	Tracker TrackerKind

	// CRACacheBytes sizes CRA's metadata cache (default 64 KB,
	// divided across channels as in the paper; here it is the total).
	CRACacheBytes int

	// HydraGCTEntries / HydraTG override Hydra's GCT size and GCT
	// threshold for the sensitivity studies (zero keeps the scaled
	// defaults).
	HydraGCTEntries int
	HydraTG         int

	// HydraRandomize enables the cipher-based randomized row-to-group
	// mapping of footnote 4, rekeyed every window.
	HydraRandomize bool

	// Attack, when non-nil, replaces core 0 with an attacker thread
	// hammering the given rows (see AttackSpec).
	Attack *AttackSpec

	// Observer, when non-nil, receives every activation and
	// mitigation the controller performs, for security oracles.
	Observer Observer

	// Trace, when non-nil, records activation, mitigation, refresh,
	// GCT-saturation and window-reset events with cycle timestamps
	// into a bounded ring (see internal/obsv). Nil costs one branch
	// per event site.
	Trace *obsv.Tracer

	// WindowCycles overrides the tracking-window length in core
	// cycles (0 = the real 64 ms, memsim.WindowCycles). Tests use a
	// short window to exercise the reset path.
	WindowCycles int64

	// Mitigation selects what a tracker flag triggers: victim refresh
	// (default), randomized row-swap, or delay throttling.
	Mitigation MitigationPolicy

	// Ctx, when non-nil, is polled periodically by Run; cancelling it
	// aborts the simulation with the cancellation cause. The campaign
	// harness uses this to kill stalled or timed-out cells.
	Ctx context.Context

	// Progress, when non-nil, is called periodically from Run with the
	// current simulated cycle, so an external watchdog can detect a
	// stalled simulation. It is called from the simulation goroutine
	// and must be cheap and non-blocking.
	Progress func(cycle int64)

	// Chaos, when non-nil, injects the scenario's faults (dropped
	// victim refreshes, postponed auto-refresh, RCT corruption) into
	// the run. See internal/faults.
	Chaos *faults.Scenario

	// Traces, when non-empty, replaces the synthetic workload with
	// one pre-recorded trace source per core (see internal/trace);
	// Cores is ignored and Profile is used only for labeling.
	Traces []cpu.TraceSource
}

// Default returns the paper's baseline run configuration for a profile.
func Default(p workload.Profile) Config {
	return Config{
		Mem:           dram.Baseline(),
		Profile:       p,
		Scale:         16,
		Cores:         8,
		TRH:           500,
		Seed:          1,
		Tracker:       TrackHydra,
		CRACacheBytes: 64 * 1024,
	}
}

// Result summarizes one run.
type Result struct {
	Workload    string
	Tracker     string
	Cycles      int64 // completion time of the slowest core
	Insts       int64
	Mem         memsim.Stats
	Mitigations int64 // mitigation decisions taken by the tracker
	SRAMBytes   int
	// ActsByKind counts activations by the request kind that caused
	// them, indexed by memsim.Kind.
	ActsByKind [5]int64
	// WindowResets counts tracking-window resets during the run.
	WindowResets int64
	// Chaos summarizes injected faults (nil without a chaos scenario).
	Chaos *ChaosStats
	// Swaps / Throttles count policy actions under the row-swap and
	// throttle mitigation policies.
	Swaps     int64
	Throttles int64
	Hydra     *core.Stats // set for Hydra runs
	CRA       *craStats   // set for CRA runs

	// Metrics is the run's observability snapshot: the "memsim.*",
	// tracker and "mitig.*"/"sim.*" families gathered when the run
	// finished (docs/METRICS.md names every entry).
	Metrics obsv.Metrics
}

type craStats struct {
	Hits        int64
	MissFetches int64
	Writebacks  int64
}

// IPC returns instructions per cycle across all cores.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// System is one assembled full-system simulation.
type System struct {
	cfg     Config
	mem     *memsim.Memory
	cores   []*cpu.Core
	tracker rh.Tracker
	region  *dram.ReservedRegion

	now         int64 // time of the activation hook currently running
	window      int64
	nextReset   int64
	resets      int64
	mitigations int64
	actsByKind  [5]int64

	// Row-swap policy state.
	rowRemap   map[uint32]uint32 // logical -> physical
	rowInverse map[uint32]uint32 // physical -> logical
	swapRNG    uint64
	swaps      int64

	// Throttle policy state.
	throttled      map[uint32]int64 // row -> earliest next access
	throttles      int64
	throttleDelays int64

	// Chaos fault-injection state (see chaos.go; chaos == nil when no
	// scenario is configured).
	chaos      *faults.Scenario
	chaosRNG   uint64
	chaosActs  int64
	chaosStats ChaosStats
	hydra      *core.Tracker // cached Hydra tracker for RCT corruption
}

// New assembles a system. The tracker structures are scaled per
// cfg.Scale unless KeepStructSize is set.
func New(cfg Config) (*System, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sim: Cores must be positive")
	}
	if err := cfg.Mem.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	window := cfg.WindowCycles
	if window <= 0 {
		window = memsim.WindowCycles
	}
	if err := validPolicy(cfg.Mitigation); err != nil {
		return nil, err
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(); err != nil {
			return nil, err
		}
	}
	s := &System{
		cfg:        cfg,
		window:     window,
		nextReset:  window,
		rowRemap:   make(map[uint32]uint32),
		rowInverse: make(map[uint32]uint32),
		swapRNG:    rngstream.Derive(cfg.Seed, "sim/rowswap"),
		throttled:  make(map[uint32]int64),
		chaos:      cfg.Chaos,
		chaosRNG:   rngstream.DeriveNonzero(cfg.Seed, "sim/chaos"),
	}

	mcfg := memsim.DefaultConfig(cfg.Mem)
	mcfg.OnACT = s.onACT
	mcfg.Trace = cfg.Trace
	s.mem = memsim.New(mcfg)

	if err := s.makeTracker(&cfg); err != nil {
		return nil, err
	}
	if h, ok := s.tracker.(*core.Tracker); ok {
		s.hydra = h
		if cfg.Trace != nil {
			h.AttachTracer(cfg.Trace, func() int64 { return s.now })
		}
	}
	if s.tracker != nil && s.tracker.MetaRows() > 0 {
		s.region = dram.NewReservedRegion(cfg.Mem, s.tracker.MetaRows())
	}

	maxDemand := cfg.Mem.RowsPerBank - 1
	if s.region != nil {
		maxDemand = s.region.MaxDemandRow()
	} else {
		// Reserve the worst-case metadata area anyway so that all
		// trackers see the identical demand footprint.
		maxDemand = cfg.Mem.RowsPerBank - 17
	}

	if len(cfg.Traces) > 0 {
		for i, src := range cfg.Traces {
			c, err := cpu.New(i, cpu.DefaultConfig(), src, demandGate{s})
			if err != nil {
				return nil, err
			}
			s.cores = append(s.cores, c)
		}
	} else {
		scfg := workload.DefaultStreamConfig(cfg.Mem, maxDemand)
		scfg.Cores, scfg.Scale, scfg.Seed = cfg.Cores, cfg.Scale, cfg.Seed
		streams, err := workload.NewStreams(cfg.Profile, scfg)
		if err != nil {
			return nil, err
		}
		for i, stream := range streams {
			c, err := cpu.New(i, cpu.DefaultConfig(), stream, demandGate{s})
			if err != nil {
				return nil, err
			}
			s.cores = append(s.cores, c)
		}
	}
	if err := s.installAttack(cfg.Attack); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *System) structScale() float64 {
	if s.cfg.KeepStructSize {
		return 1
	}
	return s.cfg.Scale
}

func scaleEntries(n int, f float64) int {
	v := int(float64(n)/f + 0.5)
	if v < 16 {
		v = 16
	}
	return v
}

func (s *System) makeTracker(cfg *Config) error {
	geom := track.Geometry{
		Rows:        cfg.Mem.TotalRows(),
		RowsPerBank: cfg.Mem.RowsPerBank,
		Banks:       cfg.Mem.TotalBanks(),
		ACTMax:      1360000,
	}
	f := s.structScale()
	switch cfg.Tracker {
	case TrackNone:
		s.tracker = nil
		return nil
	case TrackHydra, TrackHydraNoGCT, TrackHydraNoRCC:
		hc := core.ForThreshold(cfg.TRH)
		hc.Rows = cfg.Mem.TotalRows()
		hc.RowBytes = cfg.Mem.RowBytes
		hc.GCTEntries = scaleEntries(hc.GCTEntries, f)
		hc.RCCEntries = scaleEntries(hc.RCCEntries, f)
		if cfg.HydraGCTEntries > 0 {
			hc.GCTEntries = scaleEntries(cfg.HydraGCTEntries, f)
		}
		if cfg.HydraTG > 0 {
			hc.TG = cfg.HydraTG
		}
		hc.RCCWays = 16
		for hc.RCCEntries%hc.RCCWays != 0 {
			hc.RCCEntries++
		}
		hc.NoGCT = cfg.Tracker == TrackHydraNoGCT
		hc.NoRCC = cfg.Tracker == TrackHydraNoRCC
		hc.Randomize = cfg.HydraRandomize
		hc.Seed = rngstream.Derive(cfg.Seed, "tracker/hydra-cipher")
		t, err := core.New(hc, metaSink{s})
		if err != nil {
			return err
		}
		s.tracker = t
		return nil
	case TrackGraphene:
		t, err := track.NewGraphene(geom, cfg.TRH)
		if err != nil {
			return err
		}
		s.tracker = t
		return nil
	case TrackCRA:
		bytes := cfg.CRACacheBytes
		if bytes <= 0 {
			bytes = 64 * 1024
		}
		bytes = int(float64(bytes) / f)
		if bytes < 1024 {
			bytes = 1024
		}
		t, err := track.NewCRA(geom, cfg.TRH, bytes, metaSink{s})
		if err != nil {
			return err
		}
		s.tracker = t
		return nil
	case TrackOCPR:
		t, err := track.NewOCPR(geom, cfg.TRH)
		if err != nil {
			return err
		}
		s.tracker = t
		return nil
	case TrackPARA:
		t, err := track.NewPARA(cfg.TRH, 1e-9, rngstream.Derive(cfg.Seed, "tracker/para"))
		if err != nil {
			return err
		}
		s.tracker = t
		return nil
	case TrackSTART:
		t, err := track.NewSTART(geom, cfg.TRH, 0)
		if err != nil {
			return err
		}
		s.tracker = t
		return nil
	case TrackMINT:
		t, err := track.NewMINT(geom, cfg.TRH, 0, rngstream.Derive(cfg.Seed, "tracker/mint"))
		if err != nil {
			return err
		}
		s.tracker = t
		return nil
	case TrackDAPPER:
		t, err := track.NewDAPPER(geom, cfg.TRH)
		if err != nil {
			return err
		}
		s.tracker = t
		return nil
	default:
		return fmt.Errorf("sim: unknown tracker kind %q", cfg.Tracker)
	}
}

// metaSink converts tracker metadata traffic into memory requests at
// the time of the activation being processed.
type metaSink struct{ s *System }

func (k metaSink) MetaRead(off uint64)  { k.s.submitMeta(off, memsim.MetaRead) }
func (k metaSink) MetaWrite(off uint64) { k.s.submitMeta(off, memsim.MetaWrite) }

func (s *System) submitMeta(off uint64, kind memsim.Kind) {
	var line uint64
	if s.region != nil {
		line = s.region.LineAddr(off)
	} else {
		line = off / dram.LineBytes
	}
	r := s.mem.NewRequest()
	r.Line, r.Kind, r.Arrive = line, kind, s.now
	s.mem.Submit(r) // metadata traffic is never refused
}

// onACT is the controller's activation hook: it routes the activation
// to the tracker and turns mitigations into victim-refresh requests.
func (s *System) onACT(row uint32, kind memsim.Kind, at int64) {
	s.actsByKind[kind]++
	if s.chaos != nil {
		s.chaosOnAct()
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Emit(obsv.Event{Cycle: at, Kind: obsv.EvActivate, Row: row, Aux: int64(kind)})
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.Activated(rh.Row(row))
	}
	if s.tracker == nil {
		return
	}
	s.now = at
	var mitig, meta bool
	if s.region != nil {
		if idx, ok := s.region.MetaIndex(row); ok {
			mitig = s.tracker.ActivateMeta(idx)
			meta = true
		} else {
			mitig = s.tracker.Activate(rh.Row(row))
		}
	} else {
		mitig = s.tracker.Activate(rh.Row(row))
	}
	if !mitig {
		return
	}
	s.mitigations++
	if s.cfg.Trace != nil {
		var aux int64
		if meta {
			aux = 1
		}
		s.cfg.Trace.Emit(obsv.Event{Cycle: at, Kind: obsv.EvMitigate, Row: row, Aux: aux})
	}
	if s.chaos != nil && s.chaosDropRefresh() {
		// The whole victim-refresh burst is lost downstream of the
		// tracker: neither the observer nor the memory system sees it,
		// so the security oracle keeps counting unmitigated activations.
		return
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.Mitigated(rh.Row(row))
	}
	switch s.cfg.Mitigation {
	case MitigateRowSwap:
		s.performSwap(row, at)
	case MitigateThrottle:
		s.performThrottle(row, at)
	default:
		for _, victim := range mitigate.Victims(rh.Row(row), mitigate.DefaultBlast, s.cfg.Mem.RowsPerBank) {
			loc := s.cfg.Mem.RowLoc(uint32(victim))
			r := s.mem.NewRequest()
			r.Line, r.Kind, r.Arrive = s.cfg.Mem.Encode(loc), memsim.MitigAct, at
			s.mem.Submit(r) // mitigation activations are never refused
		}
	}
}

// Run executes the simulation to completion and returns the result.
//
// The loop is organized around memory epochs (docs/PERFORMANCE.md,
// "Epoch engine"): cores step one at a time while they are strictly
// earliest, and the memory system advances in bulk-synchronous epochs
// bounded by the controller lookahead, the earliest core event and the
// next window reset.
func (s *System) Run() (Result, error) {
	const maxSteps = int64(2e9) // hard safety stop
	// coreAt caches each core's NextTime. It moves only when that core
	// steps or when a memory epoch delivers completions (a core's
	// submissions never call back into a core), so the loop refreshes
	// just those.
	coreAt := make([]int64, len(s.cores))
	for i, c := range s.cores {
		coreAt[i] = c.NextTime()
	}
	for steps := int64(0); ; steps++ {
		if steps > maxSteps {
			return Result{}, fmt.Errorf("sim: exceeded %d steps; likely deadlock", maxSteps)
		}
		memNext := s.mem.NextTime()
		if steps&8191 == 0 {
			if s.cfg.Ctx != nil {
				if err := s.cfg.Ctx.Err(); err != nil {
					return Result{}, fmt.Errorf("sim: aborted near cycle %d: %w", memNext, context.Cause(s.cfg.Ctx))
				}
			}
			if s.cfg.Progress != nil && memNext < memsim.Infinity {
				s.cfg.Progress(memNext)
			}
		}
		next := memNext
		coreMin := memsim.Infinity
		coreNext := -1
		for i, t := range coreAt {
			if t < coreMin {
				coreMin = t
				if t < next {
					next = t
					coreNext = i
				}
			}
		}
		if next == memsim.Infinity {
			if s.allDone() {
				break
			}
			return Result{}, fmt.Errorf("sim: deadlock: cores blocked with idle memory")
		}
		if next >= s.nextReset {
			if s.tracker != nil {
				s.tracker.ResetWindow()
			}
			if wr, ok := s.cfg.Observer.(interface{ WindowReset() }); ok {
				wr.WindowReset()
			}
			if s.cfg.Trace != nil {
				s.cfg.Trace.Emit(obsv.Event{Cycle: s.nextReset, Kind: obsv.EvWindowReset, Aux: s.resets})
			}
			s.nextReset += s.window
			if s.chaos != nil {
				s.nextReset += s.chaosPostpone()
			}
			s.resets++
			continue
		}
		if coreNext >= 0 {
			// A core is strictly earliest (memory wins ties, as the
			// per-event loop had it).
			c := s.cores[coreNext]
			c.Step()
			coreAt[coreNext] = c.NextTime()
			continue
		}
		// Memory epoch, bounded by the earliest core event and the next
		// window reset; RunEpoch adds its own lookahead bound, which
		// keeps core wake-ups exact. A core tied with memNext
		// degenerates to a one-cycle epoch — memory still wins the tie.
		s.mem.RunEpoch(min(coreMin, s.nextReset))
		for i, c := range s.cores {
			coreAt[i] = c.NextTime()
		}
	}
	if fin, ok := s.cfg.Observer.(interface{ Finish() }); ok {
		fin.Finish()
	}
	return s.result(), nil
}

func (s *System) allDone() bool {
	if !s.mem.Idle() {
		return false
	}
	for _, c := range s.cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

func (s *System) result() Result {
	r := Result{
		Workload:     s.cfg.Profile.Name,
		Tracker:      string(s.cfg.Tracker),
		Mem:          s.mem.Stats(),
		Mitigations:  s.mitigations,
		ActsByKind:   s.actsByKind,
		WindowResets: s.resets,
		Swaps:        s.swaps,
		Throttles:    s.throttles,
	}
	for _, c := range s.cores {
		if c.FinishTime() > r.Cycles {
			r.Cycles = c.FinishTime()
		}
		r.Insts += c.Insts
	}
	if s.tracker != nil {
		r.SRAMBytes = s.tracker.SRAMBytes()
		if h, ok := s.tracker.(*core.Tracker); ok {
			st := h.Stats()
			r.Hydra = &st
		}
		if c, ok := s.tracker.(*track.CRA); ok {
			r.CRA = &craStats{Hits: c.Hits, MissFetches: c.MissFetches, Writebacks: c.Writebacks}
		}
	}
	if s.chaos != nil {
		cs := s.chaosStats
		r.Chaos = &cs
	}
	r.Metrics = s.collectMetrics(&r)
	return r
}

// collectMetrics gathers the run's observability snapshot: the memory
// system registers the "memsim.*" family, the tracker its own family,
// and the system itself the "sim.*" and "mitig.*" names.
func (s *System) collectMetrics(r *Result) obsv.Metrics {
	reg := obsv.NewRegistry()
	r.Mem.CollectInto(reg)
	if src, ok := s.tracker.(obsv.Source); ok {
		src.CollectInto(reg)
	}
	reg.Count("sim.cycles", r.Cycles)
	reg.Count("sim.insts", r.Insts)
	reg.Gauge("sim.ipc", r.IPC())
	reg.Count("sim.window_resets", s.resets)
	reg.Count("sim.acts.mitig", s.actsByKind[memsim.MitigAct])
	reg.Count("sim.acts.read", s.actsByKind[memsim.ReadReq])
	reg.Count("sim.acts.meta_read", s.actsByKind[memsim.MetaRead])
	reg.Count("sim.acts.meta_write", s.actsByKind[memsim.MetaWrite])
	reg.Count("sim.acts.write", s.actsByKind[memsim.WriteReq])
	reg.Count("mitig.issued", s.mitigations)
	reg.Count("mitig.victim_acts", r.Mem.MitigActs)
	reg.Count("mitig.swaps", s.swaps)
	reg.Count("mitig.throttles", s.throttles)
	reg.Count("mitig.throttle_delays", s.throttleDelays)
	if s.tracker != nil {
		reg.Gauge("tracker.sram_bytes", float64(s.tracker.SRAMBytes()))
	}
	if s.chaos != nil {
		reg.Count("chaos.dropped_refreshes", s.chaosStats.DroppedRefreshes)
		reg.Count("chaos.corrupted_entries", s.chaosStats.CorruptedEntries)
		reg.Count("chaos.postponed_resets", s.chaosStats.PostponedResets)
	}
	return reg.Snapshot()
}

// Run builds a system from cfg and runs it: the one-call entry point.
func Run(cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run()
}
