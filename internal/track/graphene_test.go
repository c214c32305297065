package track

import (
	"testing"

	"repro/internal/rh"
	"repro/internal/testutil"
)

// refMGBank is the Misra-Gries table as it was before its entries
// moved into a slab: one heap object per entry, an index of entry
// pointers and one slice of entry pointers per count.
// TestMisraGriesMatchesReference holds grapheneBank to it.
type refMGBank struct {
	entries   map[rh.Row]*refMGEntry
	byCount   map[int][]*refMGEntry
	spillover int
	capacity  int
}

type refMGEntry struct {
	row       rh.Row
	count     int
	lastMitig int
	pos       int
}

func newRefMGBank(capacity int) *refMGBank {
	return &refMGBank{
		entries:  make(map[rh.Row]*refMGEntry),
		byCount:  make(map[int][]*refMGEntry),
		capacity: capacity,
	}
}

func (b *refMGBank) update(row rh.Row, cut int) (mitigate, replaced bool) {
	e := b.entries[row]
	switch {
	case e != nil:
		b.unlist(e)
		b.list(e, e.count+1)
	case len(b.entries) < b.capacity:
		e = &refMGEntry{row: row}
		b.entries[row] = e
		b.list(e, 1)
		return false, false
	default:
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

func (b *refMGBank) list(e *refMGEntry, count int) {
	e.count = count
	set := b.byCount[count]
	e.pos = len(set)
	b.byCount[count] = append(set, e)
}

func (b *refMGBank) unlist(e *refMGEntry) {
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

func (b *refMGBank) estimate(row rh.Row) int {
	if e, ok := b.entries[row]; ok {
		return e.count
	}
	return b.spillover
}

// TestMisraGriesMatchesReference drives Graphene, DAPPER and START with
// the probe of TestMisraGriesVictimIsReproducible, with a window reset
// halfway, next to reference tables fed the same rows and cuts. Every
// activation must mitigate alike, START must count the same evictions,
// and every 500 activations every row's estimate and every table's
// spillover floor must match.
func TestMisraGriesMatchesReference(t *testing.T) {
	geom := Geometry{Rows: 1024, RowsPerBank: 256, Banks: 4, ACTMax: 80}
	type tracker interface {
		rh.Tracker
		EstimatedCount(rh.Row) int
	}
	type mgCase struct {
		name     string
		tr       tracker
		tables   []*grapheneBank
		table    func(rh.Row) int // the table a row updates
		cut      func(rh.Row) int // the mitigation cut for a row
		capacity int
	}
	perBank := func(banks []grapheneBank) []*grapheneBank {
		out := make([]*grapheneBank, len(banks))
		for i := range banks {
			out[i] = &banks[i]
		}
		return out
	}
	g := testutil.Must(NewGraphene(geom, 20))
	d := testutil.Must(NewDAPPER(geom, 20))
	s := testutil.Must(NewSTART(geom, 20, 40*startEntryBytes))
	cases := []mgCase{
		{"graphene", g, perBank(g.banks), geom.bank, func(rh.Row) int { return g.threshold }, g.perBank},
		{"dapper", d, perBank(d.banks), geom.bank, func(r rh.Row) int { return d.threshold - d.jitter(r) }, d.perBank},
		{"start", s, []*grapheneBank{&s.pool}, func(rh.Row) int { return 0 }, func(rh.Row) int { return s.threshold }, s.capacity},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			refs := make([]*refMGBank, len(c.tables))
			newRefs := func() {
				for i := range refs {
					refs[i] = newRefMGBank(c.tables[i].capacity)
				}
			}
			newRefs()
			compare := func(i int) {
				t.Helper()
				for row := rh.Row(0); row < rh.Row(geom.Rows); row++ {
					if got, want := c.tr.EstimatedCount(row), refs[c.table(row)].estimate(row); got != want {
						t.Fatalf("activation %d: row %d estimate %d, reference %d", i, row, got, want)
					}
				}
				for k, b := range c.tables {
					if b.spillover != refs[k].spillover {
						t.Fatalf("activation %d: table %d spillover %d, reference %d", i, k, b.spillover, refs[k].spillover)
					}
				}
			}
			rows := misraGriesProbeRows(c.capacity, geom.RowsPerBank)
			mitigs, replaced := 0, int64(0)
			for i, row := range rows {
				if i == len(rows)/2 {
					c.tr.ResetWindow()
					newRefs()
				}
				want, repl := refs[c.table(row)].update(row, c.cut(row))
				if repl {
					replaced++
				}
				if got := c.tr.Activate(row); got != want {
					t.Fatalf("activation %d (row %d): mitigate %v, reference %v", i, row, got, want)
				}
				if want {
					mitigs++
				}
				if i%500 == 0 || i == len(rows)-1 {
					compare(i)
				}
			}
			if mitigs == 0 || replaced == 0 {
				t.Fatalf("the probe mitigated %d times and replaced %d entries; want both > 0", mitigs, replaced)
			}
			if c.name == "start" && s.Evictions != replaced {
				t.Fatalf("START counted %d evictions, reference replaced %d entries", s.Evictions, replaced)
			}
		})
	}
}
