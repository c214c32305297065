package rh

// CounterPageRows is the number of counters in one CounterTable page.
const CounterPageRows = 4096

// CounterTable holds one 16-bit counter per row, paged so that host
// memory follows the rows a run actually counts: a page is allocated on
// its first nonzero write, and an unallocated page reads as all zeros.
// A flat table would zero 8 MB at the paper's 4 M rows, in every cell,
// before the first activation. Ranging over the table visits the pages
// in index order; a nil page holds only zeros.
type CounterTable []*[CounterPageRows]uint16

// NewCounterTable returns an all-zero table covering rows counters.
func NewCounterTable(rows int) CounterTable {
	return make(CounterTable, (rows+CounterPageRows-1)/CounterPageRows)
}

// Get returns counter i.
func (t CounterTable) Get(i uint32) uint16 {
	if p := t[i/CounterPageRows]; p != nil {
		return p[i%CounterPageRows]
	}
	return 0
}

// Set stores v in counter i, allocating its page unless v is 0.
func (t CounterTable) Set(i uint32, v uint16) {
	p := t[i/CounterPageRows]
	if p == nil {
		if v == 0 {
			return
		}
		p = new([CounterPageRows]uint16)
		t[i/CounterPageRows] = p
	}
	p[i%CounterPageRows] = v
}

// Clear zeroes every counter, keeping the allocated pages for reuse.
func (t CounterTable) Clear() {
	for _, p := range t {
		if p != nil {
			*p = [CounterPageRows]uint16{}
		}
	}
}
