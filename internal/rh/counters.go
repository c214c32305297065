package rh

// CounterPageRows is the number of counters in one CounterTable page.
const CounterPageRows = 4096

// sparseEntries is how many counters a sparse page holds before a write
// turns it dense. 32 entries are 128 B, against 8 KB for a dense page.
// A run touches a few rows in each page it touches, so most pages never
// fill; a larger array makes every lookup slower.
const sparseEntries = 32

// CounterTable holds one 16-bit counter per row, paged so that host
// memory follows the rows a run actually counts. An unwritten page
// reads as all zeros and costs one 16 B slot. A page's first nonzero
// write allocates it sparse: a sorted array of up to 32 (offset, value)
// entries, 144 B. A write that would overflow that array turns the page
// dense: one counter per row, 4096 in all, 8 KB. A flat table would
// zero 8 MB at the paper's 4 M rows, in every cell, before the first
// activation.
//
// A sparse entry keeps its slot when its counter is written back to
// zero; only Clear and ClearRange free slots.
type CounterTable []counterPage

type counterPage struct {
	dense  *[CounterPageRows]uint16 // set once the page is dense
	sparse *sparsePage              // set while the page is sparse
}

type sparsePage struct {
	n   int                   // entries in use
	ent [sparseEntries]uint32 // offset<<16 | value, ascending by offset
}

// find returns the position of the first entry whose offset is at
// least off (n if there is none). A scan beats a binary search over so
// few entries.
func (p *sparsePage) find(off uint32) int {
	k := 0
	for k < p.n && p.ent[k]>>16 < off {
		k++
	}
	return k
}

// NewCounterTable returns an all-zero table covering rows counters.
func NewCounterTable(rows int) CounterTable {
	return make(CounterTable, (rows+CounterPageRows-1)/CounterPageRows)
}

// Get returns counter i. It scans a sparse page itself rather than
// calling find, which keeps it small enough to inline.
func (t CounterTable) Get(i uint32) uint16 {
	pg, off := &t[i/CounterPageRows], i%CounterPageRows
	if pg.dense != nil {
		return pg.dense[off]
	}
	if p := pg.sparse; p != nil {
		for _, e := range p.ent[:p.n] {
			if e>>16 >= off {
				if e>>16 == off {
					return uint16(e)
				}
				break
			}
		}
	}
	return 0
}

// Set stores v in counter i. A zero write to a counter without an
// entry allocates nothing.
func (t CounterTable) Set(i uint32, v uint16) {
	pg, off := &t[i/CounterPageRows], i%CounterPageRows
	if pg.dense != nil {
		pg.dense[off] = v
		return
	}
	p := pg.sparse
	if p == nil {
		if v == 0 {
			return
		}
		p = new(sparsePage)
		pg.sparse = p
	}
	k := p.find(off)
	switch {
	case k < p.n && p.ent[k]>>16 == off:
		p.ent[k] = off<<16 | uint32(v)
	case v == 0:
	case p.n < sparseEntries:
		copy(p.ent[k+1:p.n+1], p.ent[k:p.n])
		p.ent[k] = off<<16 | uint32(v)
		p.n++
	default:
		d := new([CounterPageRows]uint16)
		for _, e := range p.ent[:p.n] {
			d[e>>16] = uint16(e)
		}
		d[off] = v
		pg.dense, pg.sparse = d, nil
	}
}

// Clear zeroes every counter, keeping the allocated pages for reuse.
func (t CounterTable) Clear() {
	for _, pg := range t {
		if pg.dense != nil {
			*pg.dense = [CounterPageRows]uint16{}
		} else if pg.sparse != nil {
			pg.sparse.n = 0
		}
	}
}

// ClearRange zeroes counters lo up to but not including hi. It
// allocates nothing, and frees the sparse entries in the range.
func (t CounterTable) ClearRange(lo, hi uint32) {
	for lo < hi {
		pg := t[lo/CounterPageRows]
		base := lo / CounterPageRows * CounterPageRows
		end := min(hi, base+CounterPageRows)
		if pg.dense != nil {
			clear(pg.dense[lo-base : end-base])
		} else if p := pg.sparse; p != nil {
			a, b := p.find(lo-base), p.find(end-base)
			p.n = a + copy(p.ent[a:], p.ent[b:p.n])
		}
		lo = end
	}
}

// Walk calls fn on every nonzero counter in ascending index order and
// stores what fn returns in that counter. fn must not write to the
// table.
func (t CounterTable) Walk(fn func(i uint32, v uint16) uint16) {
	for k, pg := range t {
		base := uint32(k) * CounterPageRows
		if d := pg.dense; d != nil {
			for off, v := range d {
				if v != 0 {
					d[off] = fn(base+uint32(off), v)
				}
			}
		} else if p := pg.sparse; p != nil {
			for j, e := range p.ent[:p.n] {
				if v := uint16(e); v != 0 {
					p.ent[j] = e&^0xFFFF | uint32(fn(base+e>>16, v))
				}
			}
		}
	}
}

// Pages reports how many pages are allocated in each form.
func (t CounterTable) Pages() (sparse, dense int) {
	for _, pg := range t {
		if pg.dense != nil {
			dense++
		} else if pg.sparse != nil {
			sparse++
		}
	}
	return sparse, dense
}
