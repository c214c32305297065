package workload

import (
	"fmt"
	"math/bits"

	"repro/internal/dram"
	"repro/internal/rngstream"
)

// Request is one memory access seen by the memory controller: Gap
// non-memory instructions retire on the issuing core, then the access
// to Line (a 64-byte line address) issues. Writes model LLC writebacks
// and do not stall the core.
type Request struct {
	Gap   int
	Write bool
	Line  uint64
}

// StreamConfig parameterizes one core's trace stream.
type StreamConfig struct {
	Mem          dram.Config
	MaxDemandRow int // highest usable in-bank row (below any reserved region)
	CoreID       int
	Cores        int // rate-mode copies; footprint is divided among them
	Scale        float64
	Burst        int     // consecutive line accesses per activation (row-buffer locality)
	WriteFrac    float64 // fraction of activations followed by a writeback
	Seed         uint64
	ActBudget    int // activations this stream produces (0 = window share)
}

// DefaultStreamConfig fills the knobs the paper's setup implies:
// 8 cores, burst 2, 25% writebacks.
func DefaultStreamConfig(mem dram.Config, maxDemandRow int) StreamConfig {
	return StreamConfig{
		Mem:          mem,
		MaxDemandRow: maxDemandRow,
		Cores:        8,
		Scale:        1,
		Burst:        2,
		WriteFrac:    0.25,
		Seed:         1,
	}
}

// hotBudget returns the deterministic activation budget of the i-th
// hot row: 260..559 activations, all comfortably above the 250-count
// that defines Table 3's hot set.
func hotBudget(i int, seed uint64) int {
	h := (uint64(i)+1)*0x9e3779b97f4a7c15 + seed
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return 260 + int(h%300)
}

// Stream generates one core's memory requests for a tracking window.
// It is deterministic for a given (profile, config) pair.
type Stream struct {
	p   Profile
	cfg StreamConfig
	rng rngstream.SplitMix64

	// Bit widths of the power-of-two geometry counts
	// (dram.Config.Validate): virtual rows stripe over banks by mask.
	bankBits    uint    // log2 of the total bank count
	chBits      uint    // log2 of Channels
	rankBits    uint    // log2 of RanksPerChannel
	rowsPerCore int     // in-bank rows available to this core
	perm        []int32 // random page placement within the partition (read-only, shared)

	uniqueRows int // this core's share of the footprint
	hotRows    int
	actsLeft   int
	pHot32     uint64 // P(hot) scaled to 2^32

	// Hot-set state: a rotating block of hot rows with per-row budgets.
	hotNext   int // next hot row index to admit to the block
	block     []hotSlot
	blockFill int

	// Cold-scan state: a sliding window of cold rows, each receiving
	// its per-row activation budget while resident. Real streaming
	// workloads activate a row many times in a short burst (bank
	// interleaving keeps breaking the row buffer), then move on; a
	// whole-footprint scan pass per activation would instead give
	// every metadata structure a worst-case reuse distance.
	coldWin    []hotSlot
	coldNext   int // next cold row index to admit to the window
	coldPerRow int // activations per residency (budget / passes)

	// Pending intra-burst requests and writebacks, drained from
	// pendHead. Advancing a head index instead of re-slicing keeps the
	// backing array's full capacity: once the queue drains it resets to
	// pending[:0] and the next burst appends into the same allocation,
	// so steady-state Next is allocation-free.
	pending  []Request
	pendHead int
	recent   [16]uint64 // recent lines for writeback targets
	recentN  int

	gupsMode bool
}

type hotSlot struct {
	virtRow int
	left    int
}

const hotBlockSize = 16

// NewStream creates a trace stream for one core.
func NewStream(p Profile, cfg StreamConfig) (*Stream, error) {
	return newStream(p, cfg, nil)
}

// NewStreams creates the streams of all cfg.Cores cores (cfg.CoreID is
// ignored); stream i is the one NewStream returns for CoreID i. The
// page-placement permutation depends only on the seed and the
// partition size, so the cores share one read-only copy instead of
// each shuffling its own.
func NewStreams(p Profile, cfg StreamConfig) ([]*Stream, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("workload: bad core count %d", cfg.Cores)
	}
	streams := make([]*Stream, cfg.Cores)
	var perm []int32
	for i := range streams {
		cfg.CoreID = i
		s, err := newStream(p, cfg, perm)
		if err != nil {
			return nil, err
		}
		perm = s.perm
		streams[i] = s
	}
	return streams, nil
}

// newStream creates one core's stream over perm, the shared placement
// permutation, or over a fresh one when perm is nil.
func newStream(p Profile, cfg StreamConfig, perm []int32) (*Stream, error) {
	if cfg.Cores <= 0 || cfg.CoreID < 0 || cfg.CoreID >= cfg.Cores {
		return nil, fmt.Errorf("workload: bad core %d of %d", cfg.CoreID, cfg.Cores)
	}
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 1
	}
	if err := cfg.Mem.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxDemandRow <= 0 || cfg.MaxDemandRow >= cfg.Mem.RowsPerBank {
		return nil, fmt.Errorf("workload: bad MaxDemandRow %d", cfg.MaxDemandRow)
	}
	sp := p.Scaled(cfg.Scale)
	unique := sp.UniqueRows / cfg.Cores
	if unique < 1 {
		unique = 1
	}
	hot := sp.Hot250 / cfg.Cores
	if sp.Hot250 > 0 && hot < 1 {
		hot = 1
	}
	if hot >= unique {
		hot = unique - 1
	}
	if hot < 0 {
		hot = 0
	}
	budget := cfg.ActBudget
	if budget <= 0 {
		budget = int(float64(unique) * p.ActsPerRow)
		if budget < unique {
			budget = unique // at least one activation per unique row
		}
	}

	s := &Stream{
		p:          p,
		cfg:        cfg,
		rng:        rngstream.SplitMix64{State: cfg.Seed ^ (uint64(cfg.CoreID+1) * 0xabcdef123457)},
		bankBits:   uint(bits.TrailingZeros(uint(cfg.Mem.TotalBanks()))),
		chBits:     uint(bits.TrailingZeros(uint(cfg.Mem.Channels))),
		rankBits:   uint(bits.TrailingZeros(uint(cfg.Mem.RanksPerChannel))),
		uniqueRows: unique,
		hotRows:    hot,
		actsLeft:   budget,
		gupsMode:   p.Suite == MICRO,
	}
	s.rowsPerCore = (cfg.MaxDemandRow + 1) / cfg.Cores
	if s.rowsPerCore < 1 {
		return nil, fmt.Errorf("workload: %d cores do not fit in %d demand rows", cfg.Cores, cfg.MaxDemandRow+1)
	}
	if perm == nil {
		perm = placement(s.rowsPerCore, cfg.Seed)
	}
	s.perm = perm
	// Expected hot activations set the hot-pick probability.
	hotActs := 0
	if hot > 0 {
		for i := 0; i < hot; i++ {
			hotActs += hotBudget(i, cfg.Seed)
		}
		if hotActs > budget*9/10 {
			hotActs = budget * 9 / 10
		}
		s.pHot32 = uint64(float64(1<<32) * float64(hotActs) / float64(budget))
	}
	// Iterative applications (graph kernels, stencil sweeps) touch
	// their footprint in several passes per window, so a row's
	// activations split across residencies: near reuse within a pass,
	// far reuse (a full footprint) between passes. This is what makes
	// under-provisioned per-row structures thrash (Figure 8's NoGCT).
	perRow := (budget - hotActs) / max(1, unique-hot)
	passes := int(p.ActsPerRow / 10)
	if passes < 1 {
		passes = 1
	}
	if passes > 8 {
		passes = 8
	}
	s.coldPerRow = perRow / passes
	if s.coldPerRow < 1 {
		s.coldPerRow = 1
	}
	s.coldNext = hot
	return s, nil
}

// placement returns the page-placement permutation of a rows-row
// partition. The OS scatters a workload's pages over the physical row
// space, so touched rows land in row-groups (Hydra's GCT granularity)
// roughly Poisson-distributed rather than packed back to back. A
// seeded Fisher-Yates permutation of the partition reproduces that.
func placement(rows int, seed uint64) []int32 {
	perm := make([]int32, rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng := rngstream.SplitMix64{State: seed ^ 0x5eed5eed5eed}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(rng.Next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// MustNewStream is NewStream for statically valid parameters.
func MustNewStream(p Profile, cfg StreamConfig) *Stream {
	s, err := NewStream(p, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// ActBudget returns the total activations this stream will produce.
func (s *Stream) ActBudget() int { return s.actsLeft }

// line maps (virtual row, column) to a physical line address within
// this core's partition. Virtual rows stripe across all banks first so
// the stream exercises bank-level parallelism the way real address
// interleaving does.
func (s *Stream) line(virtRow, col int) uint64 {
	mem := &s.cfg.Mem
	bank := virtRow & (1<<s.bankBits - 1)
	inBank := int(s.perm[(virtRow>>s.bankBits)%s.rowsPerCore])
	row := s.cfg.CoreID*s.rowsPerCore + inBank
	loc := dram.Loc{
		Channel: bank & (mem.Channels - 1),
		Rank:    bank >> s.chBits & (mem.RanksPerChannel - 1),
		Bank:    bank >> (s.chBits + s.rankBits),
		Row:     row,
		Col:     col & (mem.LinesPerRow() - 1),
	}
	return mem.Encode(loc)
}

// gap returns the non-memory instruction gap implied by the MPKI.
func (s *Stream) gap() int {
	if s.p.MPKI <= 0 {
		return 1000
	}
	return int(1000/s.p.MPKI + 0.5)
}

// Next returns the next request. ok is false when the stream's
// activation budget is exhausted.
func (s *Stream) Next() (req Request, ok bool) {
	if s.pendHead < len(s.pending) {
		req = s.pending[s.pendHead]
		s.pendHead++
		if s.pendHead == len(s.pending) {
			s.pending = s.pending[:0]
			s.pendHead = 0
		}
		return req, true
	}
	if s.actsLeft <= 0 {
		return Request{}, false
	}
	s.actsLeft--

	virtRow := s.nextRow()
	col := int(s.rng.Next() & uint64(s.cfg.Mem.LinesPerRow()-1))
	burst := s.cfg.Burst
	if s.gupsMode {
		burst = 1
	}
	first := Request{Gap: s.gap(), Line: s.line(virtRow, col)}
	for b := 1; b < burst; b++ {
		s.pending = append(s.pending, Request{Gap: s.gap(), Line: s.line(virtRow, col+b)})
	}
	s.remember(first.Line)
	// Writebacks target a recently used line (an LLC dirty eviction).
	if s.cfg.WriteFrac > 0 && s.rng.Next()&0xFFFFFFFF < uint64(s.cfg.WriteFrac*float64(1<<32)) {
		s.pending = append(s.pending, Request{Gap: 0, Write: true, Line: s.recall()})
	}
	return first, true
}

func (s *Stream) remember(line uint64) {
	s.recent[s.recentN%len(s.recent)] = line
	s.recentN++
}

func (s *Stream) recall() uint64 {
	if s.recentN == 0 {
		return s.line(0, 0)
	}
	n := s.recentN
	if n > len(s.recent) {
		n = len(s.recent)
	}
	return s.recent[int(s.rng.Next()%uint64(n))]
}

// nextRow picks the virtual row of the next activation.
func (s *Stream) nextRow() int {
	if s.gupsMode {
		// GUPS: uniformly random rows across the whole footprint.
		return int(s.rng.Next() % uint64(s.uniqueRows))
	}
	if s.hotRows > 0 && s.rng.Next()&0xFFFFFFFF < s.pHot32 {
		if row, ok := s.nextHot(); ok {
			return row
		}
	}
	return s.nextCold()
}

const coldWindowSize = 16

// nextCold serves cold activations from a sliding window over the
// cold footprint: each resident row receives its per-row budget in a
// temporally clustered burst, then retires in favour of the next row.
func (s *Stream) nextCold() int {
	for len(s.coldWin) < coldWindowSize {
		if s.coldNext >= s.uniqueRows {
			s.coldNext = s.hotRows // footprint exhausted: next pass
			if s.hotRows >= s.uniqueRows {
				break
			}
		}
		s.coldWin = append(s.coldWin, hotSlot{virtRow: s.coldNext, left: s.coldPerRow})
		s.coldNext++
	}
	if len(s.coldWin) == 0 {
		return 0
	}
	i := int(s.rng.Next() % uint64(len(s.coldWin)))
	slot := &s.coldWin[i]
	row := slot.virtRow
	slot.left--
	if slot.left <= 0 {
		s.coldWin[i] = s.coldWin[len(s.coldWin)-1]
		s.coldWin = s.coldWin[:len(s.coldWin)-1]
	}
	return row
}

// nextHot serves hot activations from a rotating block of hot rows so
// hot rows are hammered in temporally clustered phases, then retired
// once their budget is spent.
func (s *Stream) nextHot() (int, bool) {
	// Refill the block from the not-yet-started hot rows.
	for s.blockFill < hotBlockSize && s.hotNext < s.hotRows {
		s.block = append(s.block, hotSlot{virtRow: s.hotNext, left: hotBudget(s.hotNext, s.cfg.Seed)})
		s.hotNext++
		s.blockFill++
	}
	if len(s.block) == 0 {
		return 0, false
	}
	i := int(s.rng.Next() % uint64(len(s.block)))
	slot := &s.block[i]
	row := slot.virtRow
	slot.left--
	if slot.left <= 0 {
		s.block[i] = s.block[len(s.block)-1]
		s.block = s.block[:len(s.block)-1]
		s.blockFill--
	}
	return row, true
}
