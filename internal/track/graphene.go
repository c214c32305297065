package track

import (
	"fmt"

	"repro/internal/rh"
)

// Graphene implements the Misra-Gries-based tracker of Park et al.
// (MICRO 2020), the paper's SRAM state of the art. Each bank owns a
// table of (row, count) entries plus a spillover counter:
//
//   - a hit increments the entry's count;
//   - a miss, with the table full, replaces an entry whose count
//     equals the spillover counter, inheriting spillover+1 (a
//     conservative overestimate of the new row's true count);
//   - if no entry sits at the spillover floor, the spillover counter
//     itself is incremented.
//
// An entry's estimated count never undercounts the row's true count,
// so issuing a mitigation whenever the estimate advances by the
// operating threshold guarantees detection. Sized per the paper
// (Section 4.1): ceil(ACTMax / (T_RH/2)) entries per bank, about 5441
// at T_RH = 500.
//
// Hardware performs the floor search with a CAM; this implementation
// keeps an exact count->rows index so every operation is O(1), making
// the software model fast enough to drive full-window simulations.
// When several rows sit at the floor, the one listed last at that
// count is replaced, so a rerun replaces the same rows.
type Graphene struct {
	geom      Geometry
	threshold int // mitigation threshold (T_RH/2)
	perBank   int // entries per bank
	banks     []grapheneBank

	// Mitigations counts mitigations issued over the tracker lifetime.
	Mitigations int64
}

type grapheneEntry struct {
	row       rh.Row
	count     int
	lastMitig int // estimate at the last mitigation
	pos       int // index in the bank's byCount[count] list
}

// grapheneBank is one Misra-Gries table: Graphene keeps one per bank,
// DAPPER likewise, and START pools one for the whole controller.
type grapheneBank struct {
	entries   map[rh.Row]*grapheneEntry
	byCount   map[int][]*grapheneEntry // count -> resident entries at that count
	spillover int
	capacity  int
}

var _ rh.Tracker = (*Graphene)(nil)

// NewGraphene creates a Graphene tracker for the target T_RH.
func NewGraphene(geom Geometry, trh int) (*Graphene, error) {
	if geom.Rows <= 0 || geom.RowsPerBank <= 0 || geom.ACTMax <= 0 || geom.Banks <= 0 {
		return nil, fmt.Errorf("track: invalid geometry %+v", geom)
	}
	if trh <= 1 {
		return nil, fmt.Errorf("track: TRH must exceed 1, got %d", trh)
	}
	t := mitigationThreshold(trh)
	perBank := (geom.ACTMax + t - 1) / t
	g := &Graphene{
		geom:      geom,
		threshold: t,
		perBank:   perBank,
		banks:     make([]grapheneBank, geom.Banks),
	}
	for i := range g.banks {
		g.banks[i] = newGrapheneBank(perBank)
	}
	return g, nil
}

func newGrapheneBank(capacity int) grapheneBank {
	return grapheneBank{
		entries:  make(map[rh.Row]*grapheneEntry),
		byCount:  make(map[int][]*grapheneEntry),
		capacity: capacity,
	}
}

// update applies one Misra-Gries step for row. mitigate reports that
// the row's estimate has advanced by at least cut since its last
// mitigation, which update then records; replaced reports that the row
// took over the entry listed last at the spillover floor.
func (b *grapheneBank) update(row rh.Row, cut int) (mitigate, replaced bool) {
	e := b.entries[row]
	switch {
	case e != nil:
		b.unlist(e)
		b.list(e, e.count+1)
	case len(b.entries) < b.capacity:
		e = &grapheneEntry{row: row}
		b.entries[row] = e
		b.list(e, 1)
		return false, false
	default:
		// Table full: replace a row stranded at the floor, or raise the
		// floor when none is. The new row inherits spillover+1, a
		// conservative overestimate of its count.
		floor := b.byCount[b.spillover]
		if len(floor) == 0 {
			b.spillover++
			return false, false
		}
		e = floor[len(floor)-1]
		b.unlist(e)
		delete(b.entries, e.row)
		e.row = row
		e.lastMitig = b.spillover
		b.entries[row] = e
		b.list(e, b.spillover+1)
		replaced = true
	}
	if e.count-e.lastMitig < cut {
		return false, replaced
	}
	e.lastMitig = e.count
	return true, replaced
}

// list appends e to the resident list of count.
func (b *grapheneBank) list(e *grapheneEntry, count int) {
	e.count = count
	set := b.byCount[count]
	e.pos = len(set)
	b.byCount[count] = append(set, e)
}

// unlist swap-removes e from the resident list of its count.
func (b *grapheneBank) unlist(e *grapheneEntry) {
	set := b.byCount[e.count]
	n := len(set) - 1
	if n == 0 {
		delete(b.byCount, e.count)
		return
	}
	last := set[n]
	set[e.pos], last.pos = last, e.pos
	set[n] = nil
	b.byCount[e.count] = set[:n]
}

// MustNewGraphene is NewGraphene for statically valid parameters.
func MustNewGraphene(geom Geometry, trh int) *Graphene {
	g, err := NewGraphene(geom, trh)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements rh.Tracker.
func (g *Graphene) Name() string { return "graphene" }

// EntriesPerBank returns the table size per bank (5441-ish at T_RH 500).
func (g *Graphene) EntriesPerBank() int { return g.perBank }

// Threshold returns the operating (mitigation) threshold, T_RH/2.
func (g *Graphene) Threshold() int { return g.threshold }

// Activate implements rh.Tracker.
func (g *Graphene) Activate(row rh.Row) bool {
	mitigate, _ := g.banks[g.geom.bank(row)].update(row, g.threshold)
	if mitigate {
		g.Mitigations++
	}
	return mitigate
}

// ActivateMeta implements rh.Tracker; Graphene has no DRAM metadata.
func (g *Graphene) ActivateMeta(int) bool { return false }

// MetaRows implements rh.Tracker.
func (g *Graphene) MetaRows() int { return 0 }

// ResetWindow implements rh.Tracker.
func (g *Graphene) ResetWindow() {
	for i := range g.banks {
		g.banks[i] = newGrapheneBank(g.perBank)
	}
}

// SRAMBytes implements rh.Tracker: 4 bytes per CAM entry (row tag plus
// counter), the calibration that reproduces the paper's Table 1 column
// (340 KB per 16-bank rank at T_RH = 500).
func (g *Graphene) SRAMBytes() int {
	return g.perBank * g.geom.Banks * 4
}

// EstimatedCount returns the tracker's estimate for a row: its entry
// count when resident, the spillover floor otherwise. The estimate
// never undercounts the true count.
func (g *Graphene) EstimatedCount(row rh.Row) int {
	b := &g.banks[g.geom.bank(row)]
	if e, ok := b.entries[row]; ok {
		return e.count
	}
	return b.spillover
}
