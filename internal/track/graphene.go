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

// grapheneEntry is one resident row of a Misra-Gries table.
type grapheneEntry struct {
	row       rh.Row
	pos       int32 // index in the bank's byCount[count] list
	count     int
	lastMitig int // estimate at the last mitigation
}

// grapheneBank is one Misra-Gries table: Graphene keeps one per bank,
// DAPPER likewise, and START pools one for the whole controller.
// Entries live in one slab and are named by slot; slotOf maps a row to
// its slot and holds no pointers, so the garbage collector never scans
// it. A count whose list empties hands the list's backing array to the
// next count that needs one.
type grapheneBank struct {
	slots     []grapheneEntry
	slotOf    map[rh.Row]int32
	byCount   map[int][]int32 // count -> slots resident at that count
	spare     [][]int32       // emptied lists' backing arrays
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
		slotOf:   make(map[rh.Row]int32),
		byCount:  make(map[int][]int32),
		capacity: capacity,
	}
}

// update applies one Misra-Gries step for row. mitigate reports that
// the row's estimate has advanced by at least cut since its last
// mitigation, which update then records; replaced reports that the row
// took over the entry listed last at the spillover floor.
func (b *grapheneBank) update(row rh.Row, cut int) (mitigate, replaced bool) {
	s, ok := b.slotOf[row]
	switch {
	case ok:
		b.unlist(s)
		b.list(s, b.slots[s].count+1)
	case len(b.slots) < b.capacity:
		s = int32(len(b.slots))
		b.slots = append(b.slots, grapheneEntry{row: row})
		b.slotOf[row] = s
		b.list(s, 1)
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
		s = floor[len(floor)-1]
		b.unlist(s)
		delete(b.slotOf, b.slots[s].row)
		b.slots[s].row = row
		b.slots[s].lastMitig = b.spillover
		b.slotOf[row] = s
		b.list(s, b.spillover+1)
		replaced = true
	}
	e := &b.slots[s]
	if e.count-e.lastMitig < cut {
		return false, replaced
	}
	e.lastMitig = e.count
	return true, replaced
}

// list appends slot s to the resident list of count.
func (b *grapheneBank) list(s int32, count int) {
	set := b.byCount[count]
	if set == nil && len(b.spare) > 0 {
		set = b.spare[len(b.spare)-1]
		b.spare = b.spare[:len(b.spare)-1]
	}
	b.slots[s].count = count
	b.slots[s].pos = int32(len(set))
	b.byCount[count] = append(set, s)
}

// unlist swap-removes slot s from the resident list of its count.
func (b *grapheneBank) unlist(s int32) {
	e := &b.slots[s]
	set := b.byCount[e.count]
	n := len(set) - 1
	if n == 0 {
		delete(b.byCount, e.count)
		b.spare = append(b.spare, set[:0])
		return
	}
	last := set[n]
	set[e.pos] = last
	b.slots[last].pos = e.pos
	b.byCount[e.count] = set[:n]
}

// estimate returns a row's entry count when resident, the spillover
// floor otherwise. It never undercounts the row's true count.
func (b *grapheneBank) estimate(row rh.Row) int {
	if s, ok := b.slotOf[row]; ok {
		return b.slots[s].count
	}
	return b.spillover
}

// reset empties the table in place for a new window, keeping the slab,
// both maps and every list's backing array for reuse.
func (b *grapheneBank) reset() {
	for _, set := range b.byCount {
		b.spare = append(b.spare, set[:0])
	}
	clear(b.byCount)
	clear(b.slotOf)
	b.slots = b.slots[:0]
	b.spillover = 0
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

// ResetWindow implements rh.Tracker.
func (g *Graphene) ResetWindow() {
	for i := range g.banks {
		g.banks[i].reset()
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
	return g.banks[g.geom.bank(row)].estimate(row)
}
