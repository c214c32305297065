package rh

import (
	"math/rand"
	"testing"
)

// TestCounterTableMatchesFlatSlice drives the paged table and a flat
// slice with the same random gets, sets and clears. Indices cluster at
// page boundaries and at the ends of a table whose last page is
// partial, and a quarter of the sets write zero, many of them to pages
// never allocated.
func TestCounterTableMatchesFlatSlice(t *testing.T) {
	const rows = 5*CounterPageRows + 123
	tab := NewCounterTable(rows)
	flat := make([]uint16, rows)
	rng := rand.New(rand.NewSource(1))
	index := func() uint32 {
		switch rng.Intn(3) {
		case 0: // within two rows of a page boundary, or of the table's end
			edge := (rng.Intn(rows/CounterPageRows) + 1) * CounterPageRows
			if rng.Intn(4) == 0 {
				edge = rows
			}
			i := edge - 2 + rng.Intn(4)
			return uint32(min(max(i, 0), rows-1))
		case 1: // a few hot rows, so counters are read back after writes
			return uint32(rng.Intn(8)) * 997
		default:
			return uint32(rng.Intn(rows))
		}
	}
	for op := 0; op < 200000; op++ {
		i := index()
		switch r := rng.Intn(100); {
		case r == 0:
			tab.Clear()
			clear(flat)
		case r < 45:
			v := uint16(rng.Intn(1 << 16))
			if rng.Intn(4) == 0 {
				v = 0
			}
			tab.Set(i, v)
			flat[i] = v
		default:
			if got := tab.Get(i); got != flat[i] {
				t.Fatalf("op %d: Get(%d) = %d, flat slice holds %d", op, i, got, flat[i])
			}
		}
	}
	for i, v := range flat {
		if got := tab.Get(uint32(i)); got != v {
			t.Fatalf("final Get(%d) = %d, flat slice holds %d", i, got, v)
		}
	}
}

// TestCounterTableAllocatesOnNonzeroWrite pins the paging contract:
// zero writes and reads leave a page unallocated, the first nonzero
// write allocates it, and Clear keeps it for reuse.
func TestCounterTableAllocatesOnNonzeroWrite(t *testing.T) {
	tab := NewCounterTable(3*CounterPageRows - 1)
	if len(tab) != 3 {
		t.Fatalf("%d pages for %d rows, want 3", len(tab), 3*CounterPageRows-1)
	}
	tab.Set(CounterPageRows, 0)
	if tab.Get(CounterPageRows+1) != 0 || tab[1] != nil {
		t.Fatal("a zero write or a read allocated a page")
	}
	tab.Set(2*CounterPageRows-1, 9)
	if tab[0] != nil || tab[1] == nil || tab[2] != nil {
		t.Fatal("a nonzero write allocated the wrong page")
	}
	tab.Clear()
	if tab[1] == nil || tab.Get(2*CounterPageRows-1) != 0 {
		t.Fatal("Clear must zero the page and keep it")
	}
}
