package core

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/obsv"
	"repro/internal/rh"
)

// Stats counts where activation updates were satisfied, reproducing the
// three access categories of Figure 4 / Figure 6, plus mitigation and
// group-initialization activity.
type Stats struct {
	Acts        int64 // total activations observed (demand + mitigation feedback)
	GCTOnly     int64 // satisfied by the GCT alone (Figure 4a)
	RCCHit      int64 // needed per-row state, hit in the RCC (Figure 4b)
	RCTAccess   int64 // needed per-row state, went to DRAM (Figure 4c)
	Mitigations int64 // mitigations issued for tracked rows
	GroupInits  int64 // GCT entries that saturated (RCT group initializations)
	MetaActs    int64 // activations observed on the RCT's own rows
	MetaMitig   int64 // mitigations issued for RCT rows (RIT-ACT)
	MetaReads   int64 // 64-byte RCT line reads issued
	MetaWrites  int64 // 64-byte RCT line writes issued
}

// CollectInto implements obsv.Source, registering the "hydra.*" access
// distribution and the "rct.*" DRAM-traffic family (docs/METRICS.md).
func (s Stats) CollectInto(r *obsv.Registry) {
	r.Count("hydra.acts", s.Acts)
	r.Count("hydra.gct_only", s.GCTOnly)
	r.Count("hydra.rcc_hit", s.RCCHit)
	r.Count("hydra.mitigations", s.Mitigations)
	r.Count("tracker.mitigations", s.Mitigations+s.MetaMitig)
	r.Count("hydra.group_inits", s.GroupInits)
	r.Count("hydra.meta_acts", s.MetaActs)
	r.Count("hydra.meta_mitig", s.MetaMitig)
	r.Count("rct.fetches", s.RCTAccess)
	r.Count("rct.line_reads", s.MetaReads)
	r.Count("rct.line_writes", s.MetaWrites)
}

// Tracker is the Hydra hybrid tracker. It implements rh.Tracker.
// It is not safe for concurrent use; the memory controller serializes
// activations per rank in hardware and the simulator does the same.
type Tracker struct {
	cfg       Config // with defaults resolved
	sink      rh.MemSink
	gct       []uint16 // saturating group counters (0..TG)
	rcc       *cache.SetAssoc
	rct       rh.CounterTable // per-row counters, the DRAM-resident table, stored XOR fill
	fill      uint16          // what a cleared RCT entry reads as: T_G with the GCT, else 0
	inited    []uint16        // bit per GCT group: initialized at least once, so stored XOR fill
	rctEpoch  []uint32        // per-line epoch for the NoGCT ablation's lazy clear
	epoch     uint32
	ritAct    []uint16 // SRAM counters guarding the RCT's own rows
	cipher    *rowCipher
	groupSize int
	lineRows  int // rows whose RCT entries share a 64-byte line
	stats     Stats

	// Event tracing (AttachTracer); nil when disabled.
	trace   *obsv.Tracer
	traceAt func() int64
}

var _ rh.Tracker = (*Tracker)(nil)

// New creates a Hydra tracker. The sink receives RCT line traffic; pass
// rh.NullSink{} when only the functional behaviour matters.
func New(cfg Config, sink rh.MemSink) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.withDefaults()
	t := &Tracker{
		cfg:       d,
		sink:      sink,
		rct:       rh.NewCounterTable(d.Rows),
		groupSize: d.GroupSize(),
		lineRows:  64 / d.RCTEntryBytes(),
	}
	// One allocation holds the 16-bit SRAM arrays: the RIT-ACT guards
	// and, with a GCT, its counters and one init bit per group.
	meta, n := d.MetaRows(), 0
	if !d.NoGCT {
		n = d.GCTEntries
	}
	buf := make([]uint16, meta+n+(n+15)/16)
	t.ritAct = buf[:meta:meta]
	if !d.NoGCT {
		t.gct, t.inited = buf[meta:meta+n:meta+n], buf[meta+n:]
		t.fill = uint16(d.TG)
	}
	if !d.NoRCC {
		policy := cache.SRRIP
		if d.RCCUseLRU {
			policy = cache.LRU
		}
		rcc, err := cache.New(d.RCCEntries, d.RCCWays, policy)
		if err != nil {
			return nil, fmt.Errorf("core: sizing RCC: %w", err)
		}
		t.rcc = rcc
	}
	if d.NoGCT {
		t.rctEpoch = make([]uint32, d.Rows/t.lineRows+1)
		t.epoch = 1
	}
	if d.Randomize {
		t.cipher = newRowCipher(d.Rows, d.Seed)
	}
	return t, nil
}

// MustNew is New for configurations known statically valid.
func MustNew(cfg Config, sink rh.MemSink) *Tracker {
	t, err := New(cfg, sink)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements rh.Tracker.
func (t *Tracker) Name() string {
	switch {
	case t.cfg.NoGCT:
		return "hydra-nogct"
	case t.cfg.NoRCC:
		return "hydra-norcc"
	default:
		return "hydra"
	}
}

// Config returns the resolved configuration (defaults filled in).
func (t *Tracker) Config() Config { return t.cfg }

// AttachTracer enables event tracing: GCT-saturation events (a group
// switching to per-row tracking, Section 4.4) are emitted into tr,
// stamped with the cycle returned by now. The tracker itself has no
// clock, so the caller — typically the full-system simulator — supplies
// the timestamp of the activation currently being processed. Passing a
// nil tracer disables tracing again.
func (t *Tracker) AttachTracer(tr *obsv.Tracer, now func() int64) {
	t.trace = tr
	t.traceAt = now
}

// Stats returns the access-distribution counters.
func (t *Tracker) Stats() Stats { return t.stats }

// CollectInto implements obsv.Source (see Stats.CollectInto).
func (t *Tracker) CollectInto(r *obsv.Registry) { t.stats.CollectInto(r) }

// SRAMBytes implements rh.Tracker.
func (t *Tracker) SRAMBytes() int { return t.cfg.Storage().TotalBytes }

// MetaRows implements rh.Tracker.
func (t *Tracker) MetaRows() int { return t.cfg.MetaRows() }

// rctLineOffset returns the byte offset (64-byte aligned) of the RCT
// line holding the counter of permuted row index idx.
func (t *Tracker) rctLineOffset(idx uint32) uint64 {
	return uint64(idx) / uint64(t.lineRows) * 64
}

// index applies the (optionally randomized) row-to-index mapping used
// for both GCT and RCT indexing.
func (t *Tracker) index(row rh.Row) uint32 {
	if t.cipher != nil {
		return t.cipher.Encrypt(uint32(row))
	}
	return uint32(row)
}

// Activate implements rh.Tracker. It records one activation of row and
// reports whether a mitigation must be issued for it now.
func (t *Tracker) Activate(row rh.Row) bool {
	if int(row) >= t.cfg.Rows {
		panic(fmt.Sprintf("core: row %d out of range (rows=%d)", row, t.cfg.Rows))
	}
	t.stats.Acts++
	idx := t.index(row)

	if !t.cfg.NoGCT {
		g := int(idx) / t.groupSize
		if int(t.gct[g]) < t.cfg.TG {
			t.gct[g]++
			if int(t.gct[g]) == t.cfg.TG {
				t.initGroup(g)
			}
			t.stats.GCTOnly++
			return false
		}
	}
	return t.perRow(idx)
}

// initGroup switches a saturated row-group to per-row tracking by
// initializing every RCT entry of the group to T_G (Section 4.4). With
// the default 128-row groups and 1-byte entries this is exactly two
// line reads and two line writes. The host table stores every entry
// XOR fill, so writing T_G to the whole group is a range clear and
// allocates nothing.
func (t *Tracker) initGroup(g int) {
	t.stats.GroupInits++
	if t.trace != nil {
		var at int64
		if t.traceAt != nil {
			at = t.traceAt()
		}
		t.trace.Emit(obsv.Event{Cycle: at, Kind: obsv.EvGCTSaturate, Aux: int64(g)})
	}
	lo := g * t.groupSize
	hi := min(lo+t.groupSize, t.cfg.Rows)
	t.rct.ClearRange(uint32(lo), uint32(hi))
	t.inited[g/16] |= 1 << (g % 16)
	firstLine := t.rctLineOffset(uint32(lo))
	lastLine := t.rctLineOffset(uint32(hi - 1))
	for line := firstLine; line <= lastLine; line += 64 {
		t.sink.MetaRead(line)
		t.stats.MetaReads++
		t.sink.MetaWrite(line)
		t.stats.MetaWrites++
	}
}

// perRow performs per-row tracking for the permuted index (Figure 4 b/c).
func (t *Tracker) perRow(idx uint32) bool {
	if t.cfg.NoRCC {
		// Read-modify-write of the RCT line on every activation.
		t.stats.RCTAccess++
		line := t.rctLineOffset(idx)
		t.sink.MetaRead(line)
		t.stats.MetaReads++
		count := t.loadRCT(idx) + 1
		mitigate := int(count) >= t.cfg.TH
		if mitigate {
			count = 0
			t.stats.Mitigations++
		}
		t.rct.Set(idx, count^t.fill)
		t.sink.MetaWrite(line)
		t.stats.MetaWrites++
		return mitigate
	}

	if count, ok := t.rcc.Lookup(uint64(idx)); ok {
		t.stats.RCCHit++
		count++
		mitigate := int(count) >= t.cfg.TH
		if mitigate {
			count = 0
			t.stats.Mitigations++
		}
		t.rcc.Update(uint64(idx), count)
		return mitigate
	}

	// RCC miss: fetch the RCT line from memory and install the entry.
	t.stats.RCTAccess++
	t.sink.MetaRead(t.rctLineOffset(idx))
	t.stats.MetaReads++
	count := uint32(t.loadRCT(idx)) + 1
	mitigate := int(count) >= t.cfg.TH
	if mitigate {
		count = 0
		t.stats.Mitigations++
	}
	victim, evicted := t.rcc.Insert(uint64(idx), count, true)
	if evicted && victim.Dirty {
		// Write the victim's count back: fetch its line, merge, write.
		vline := t.rctLineOffset(uint32(victim.Key))
		t.sink.MetaRead(vline)
		t.stats.MetaReads++
		t.storeRCT(uint32(victim.Key), uint16(victim.Val))
		t.sink.MetaWrite(vline)
		t.stats.MetaWrites++
	}
	return mitigate
}

// loadRCT reads the RCT entry honoring the NoGCT ablation's lazy
// per-window clear (real Hydra never needs to clear the RCT because
// group initialization overwrites stale counts, Section 4.6). Every
// entry it reads lies in a group initialized this window, since only a
// saturated group reaches per-row tracking, so its stored value is
// XOR fill.
func (t *Tracker) loadRCT(idx uint32) uint16 {
	if t.cfg.NoGCT {
		line := int(idx) / t.lineRows
		if t.rctEpoch[line] != t.epoch {
			lo := line * t.lineRows
			t.rct.ClearRange(uint32(lo), uint32(min(lo+t.lineRows, t.cfg.Rows)))
			t.rctEpoch[line] = t.epoch
		}
	}
	return t.rct.Get(idx) ^ t.fill
}

func (t *Tracker) storeRCT(idx uint32, v uint16) {
	if t.cfg.NoGCT {
		t.loadRCT(idx) // ensure the line is in the current epoch first
	}
	t.rct.Set(idx, v^t.fill)
}

// ActivateMeta implements rh.Tracker: activations of the RCT's own
// DRAM rows are tracked by the dedicated RIT-ACT SRAM counters
// (Section 5.2.2) and mitigated at T_H like any other row.
func (t *Tracker) ActivateMeta(metaRow int) bool {
	if metaRow < 0 || metaRow >= len(t.ritAct) {
		panic(fmt.Sprintf("core: metadata row %d out of range (%d rows)", metaRow, len(t.ritAct)))
	}
	t.stats.MetaActs++
	t.ritAct[metaRow]++
	if int(t.ritAct[metaRow]) >= t.cfg.TH {
		t.ritAct[metaRow] = 0
		t.stats.MetaMitig++
		return true
	}
	return false
}

// ResetWindow implements rh.Tracker: it clears the SRAM structures
// (GCT, RCC, RIT-ACT) at the end of each 64 ms tracking window. The
// DRAM-resident RCT is deliberately not touched (Section 4.6); for the
// NoGCT ablation an epoch bump models the required lazy clear. With
// randomized indexing the cipher is rekeyed, changing the row-to-group
// mapping for the next window.
func (t *Tracker) ResetWindow() {
	for i := range t.gct {
		t.gct[i] = 0
	}
	if t.rcc != nil {
		t.rcc.Reset()
	}
	for i := range t.ritAct {
		t.ritAct[i] = 0
	}
	if t.cfg.NoGCT {
		t.epoch++
	}
	if t.cipher != nil {
		t.cipher.Rekey()
	}
}

// CorruptRCT models disturbance of the DRAM-resident RCT rows — the
// attack surface Section 5.2.2 defends with RIT-ACT, exercised by the
// chaos campaigns of internal/faults: each nonzero counter is zeroed
// with probability frac (drawn from rng, which must return values in
// [0,1)). Zeroing is the adversarial direction, since an undercount
// can hide a hot row from mitigation. Counters cached in the SRAM RCC
// are deliberately untouched: physically, corrupting DRAM does not
// reach a cached copy until it is evicted and refetched. Returns how
// many entries were corrupted. Entries are visited in index order and
// rng is drawn once per nonzero entry, as a flat table would: with a
// GCT, every row of each group ever initialized (stored XOR fill, so a
// zero in the host table is a nonzero T_G; no other entry was ever
// written), and without one the host table's nonzero entries.
func (t *Tracker) CorruptRCT(frac float64, rng func() float64) int {
	if frac <= 0 {
		return 0
	}
	n := 0
	if t.inited == nil {
		t.rct.Walk(func(_ uint32, v uint16) uint16 {
			if rng() < frac {
				n++
				return 0
			}
			return v
		})
		return n
	}
	for w, set := range t.inited {
		for ; set != 0; set &= set - 1 {
			lo := (w*16 + bits.TrailingZeros16(set)) * t.groupSize
			hi := min(lo+t.groupSize, t.cfg.Rows)
			for i := uint32(lo); i < uint32(hi); i++ {
				if t.rct.Get(i) != t.fill && rng() < frac {
					t.rct.Set(i, t.fill)
					n++
				}
			}
		}
	}
	return n
}

// GCTValue returns the current value of the GCT entry for row (for
// tests and introspection). It returns TG when the GCT is disabled.
func (t *Tracker) GCTValue(row rh.Row) int {
	if t.cfg.NoGCT {
		return t.cfg.TG
	}
	return int(t.gct[int(t.index(row))/t.groupSize])
}

// EstimatedCount returns Hydra's current estimate of the row's
// activation count this window: the GCT value while in phase 1, the
// RCC/RCT count afterwards. Estimates are always >= the true count
// (Section 4.5); tests rely on this.
func (t *Tracker) EstimatedCount(row rh.Row) int {
	idx := t.index(row)
	if !t.cfg.NoGCT {
		g := int(idx) / t.groupSize
		if int(t.gct[g]) < t.cfg.TG {
			return int(t.gct[g])
		}
	}
	if t.rcc != nil {
		if v, ok := t.rcc.Peek(uint64(idx)); ok {
			return int(v)
		}
	}
	return int(t.loadRCT(idx))
}
