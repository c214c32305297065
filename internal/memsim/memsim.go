// Package memsim is an event-driven DDR4 memory-system simulator in
// the spirit of USIMM (the simulator the paper evaluates with). It
// models, per channel: FR-FCFS scheduling with read priority and
// write-drain hysteresis, per-bank row-buffer and timing state
// (tRCD/tRP/tCAS/tRC/tRFC/tFAW), a shared data bus, periodic rank
// refresh, and the two request classes row-hammer tracking adds —
// victim-refresh activations (bank-only, high priority) and metadata
// line transfers (low priority).
//
// Time is measured in core cycles at 3.2 GHz (0.3125 ns), which makes
// the paper's Table 2 DDR4-3200 parameters exact integers: tRC = 45 ns
// = 144 cycles, a 64-byte burst = 2.5 ns = 8 cycles, and a 64 ms
// refresh window = 204.8 M cycles.
//
// Every controller maintains the observability counters of
// internal/obsv: queue-depth and open-bank histograms sampled at each
// scheduling decision, write-drain mode transitions, and (optionally)
// refresh events into a trace ring. Stats implements obsv.Source so a
// finished run registers as the "memsim.*" metric family.
package memsim

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/obsv"
)

// Kind classifies a memory request.
type Kind uint8

// Request kinds, in scheduling-priority order (after refresh):
// mitigation activations first, then demand reads, then metadata
// reads, then writes. Writes — demand and metadata alike — coalesce in
// the write queue and drain in batches, amortizing the write-to-read
// bus turnaround (tWTR) instead of paying it per interleaved write.
const (
	MitigAct  Kind = iota // victim-refresh activation: bank-only, no data
	ReadReq               // demand read (LLC miss)
	MetaRead              // tracker metadata line read
	MetaWrite             // tracker metadata line write
	WriteReq              // demand write (LLC writeback)
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case MitigAct:
		return "mitigate"
	case ReadReq:
		return "read"
	case MetaRead:
		return "meta-read"
	case MetaWrite:
		return "meta-write"
	case WriteReq:
		return "write"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Request is one memory-controller transaction. Obtain requests from
// Memory.NewRequest to run allocation-free (they are recycled after
// service); requests built directly with &Request{} also work.
type Request struct {
	Line   uint64
	Kind   Kind
	Arrive int64
	// User is opaque caller context, carried through to OnFinish
	// (e.g. the issue number a core tags its loads with).
	User int64
	// OnFinish, if non-nil, is called once with the request and its
	// completion time (for reads: when data is back at the core). The
	// request is only valid for the duration of the call when it came
	// from the pool; read User inside the callback, don't retain r.
	OnFinish func(r *Request, finish int64)

	loc    dram.Loc
	seq    int64
	qpos   int32 // index in its bank bucket while queued
	pooled bool  // recycle into the free list after service
}

// Config parameterizes the memory system.
type Config struct {
	Mem    dram.Config
	Timing Timing

	// Queue capacities per channel.
	ReadQCap  int
	WriteQCap int

	// Write-drain hysteresis (fractions of WriteQCap are conventional;
	// these are absolute counts).
	DrainHi int
	DrainLo int

	// StaticLatency is the constant core-to-controller-and-back delay
	// added to read completions (interconnect plus LLC lookup).
	StaticLatency int64

	// OnACT, if non-nil, is invoked for every row activation the
	// controller performs, with the global row and the activation
	// time. It runs when the epoch barrier replays the activation; it
	// may submit new requests (metadata traffic, victim refreshes).
	OnACT func(row uint32, kind Kind, now int64)

	// Trace, when non-nil, receives refresh events (the other event
	// kinds are emitted by the layers that own them). A nil tracer
	// costs one branch per refresh.
	Trace *obsv.Tracer
}

// DefaultConfig returns the baseline controller configuration.
func DefaultConfig(mem dram.Config) Config {
	return Config{
		Mem:           mem,
		Timing:        DDR4(),
		ReadQCap:      64,
		WriteQCap:     96,
		DrainHi:       64,
		DrainLo:       24,
		StaticLatency: 60, // ~19 ns LLC + interconnect
	}
}

// Stats aggregates controller activity.
type Stats struct {
	Reads      int64
	Writes     int64
	MetaReads  int64
	MetaWrites int64
	MitigActs  int64
	Activates  int64 // row activations (all causes)
	RowHits    int64 // CAS without a new activation
	Refreshes  int64 // rank auto-refresh commands
	ReadLatSum int64 // sum of read latencies (queue+service)
	BusyUntil  int64 // latest completion seen

	// DrainEnters / DrainExits count write-drain mode transitions
	// (the DrainHi/DrainLo hysteresis flipping on and off).
	DrainEnters int64
	DrainExits  int64
	// ReadQFull / WriteQFull count submissions refused because the
	// queue was at capacity (backpressure onto the cores).
	ReadQFull  int64
	WriteQFull int64

	// Epochs counts RunEpoch barriers.
	Epochs int64

	// ReadQDepth / WriteQDepth / MetaQDepth are FR-FCFS queue depths
	// and OpenBanks the count of banks with an open row, each sampled
	// at every scheduling decision.
	ReadQDepth  obsv.Hist
	WriteQDepth obsv.Hist
	MetaQDepth  obsv.Hist
	OpenBanks   obsv.Hist
}

// AvgReadLatency returns the mean read latency in cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadLatSum) / float64(s.Reads)
}

// CollectInto implements obsv.Source, registering the "memsim.*"
// metric family (documented in docs/METRICS.md).
func (s Stats) CollectInto(r *obsv.Registry) {
	r.Count("memsim.reads", s.Reads)
	r.Count("memsim.writes", s.Writes)
	r.Count("memsim.meta_reads", s.MetaReads)
	r.Count("memsim.meta_writes", s.MetaWrites)
	r.Count("memsim.mitig_acts", s.MitigActs)
	r.Count("memsim.activates", s.Activates)
	r.Count("memsim.row_hits", s.RowHits)
	r.Count("memsim.refreshes", s.Refreshes)
	r.Count("memsim.epochs", s.Epochs)
	r.Count("memsim.drain_enters", s.DrainEnters)
	r.Count("memsim.drain_exits", s.DrainExits)
	r.Count("memsim.readq_full", s.ReadQFull)
	r.Count("memsim.writeq_full", s.WriteQFull)
	r.Gauge("memsim.avg_read_latency", s.AvgReadLatency())
	r.Histogram("memsim.readq_depth", s.ReadQDepth)
	r.Histogram("memsim.writeq_depth", s.WriteQDepth)
	r.Histogram("memsim.metaq_depth", s.MetaQDepth)
	r.Histogram("memsim.open_banks", s.OpenBanks)
}

// Memory is the full memory system: one controller per channel,
// advanced by RunEpoch (epoch.go). It is single-goroutine: every method
// and every callback runs on the caller's goroutine.
type Memory struct {
	cfg      Config
	sh       shared
	channels []*channel
	epochs   int64
}

// New creates a memory system. It panics on invalid configuration
// since configurations are static in this codebase.
func New(cfg Config) *Memory {
	if err := cfg.Mem.Validate(); err != nil {
		panic(err)
	}
	if cfg.ReadQCap <= 0 || cfg.WriteQCap <= 0 || cfg.DrainHi > cfg.WriteQCap || cfg.DrainLo >= cfg.DrainHi {
		panic(fmt.Sprintf("memsim: bad queue config %+v", cfg))
	}
	m := &Memory{cfg: cfg}
	for c := 0; c < cfg.Mem.Channels; c++ {
		m.channels = append(m.channels, newChannel(&m.cfg, &m.sh, c))
	}
	return m
}

// Submit routes a request to its channel. It reports false when the
// relevant queue is full; the caller must retry later (NextTime will
// advance as the controller drains).
func (m *Memory) Submit(r *Request) bool {
	r.loc = m.cfg.Mem.Decode(r.Line)
	return m.channels[r.loc.Channel].submit(r)
}

// NextTime returns the earliest time any channel can act, or Infinity
// when all are idle.
func (m *Memory) NextTime() int64 {
	t := Infinity
	for _, c := range m.channels {
		if c.nextAt < t {
			t = c.nextAt
		}
	}
	return t
}

// Idle reports whether every queue in every channel is empty.
func (m *Memory) Idle() bool {
	for _, c := range m.channels {
		if !c.idle() {
			return false
		}
	}
	return true
}

// Stats sums the per-channel statistics (histograms merge bucket-wise).
func (m *Memory) Stats() Stats {
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
