package rh

import (
	"math/rand"
	"testing"
)

// TestCounterTableMatchesFlatSlice drives the paged table and a flat
// slice with the same random gets, sets, walks, range clears and
// clears. Each page's writes reach a fixed set of counters whose size
// decides the page's form: pages of 8 and 32 counters stay sparse, a
// page of 33 crosses the sparse→dense switch mid-run, larger ones turn
// dense early, and the last page is partial. Every set holds its
// page's first and last two rows, which a quarter of the picks hit, so
// indices cluster at page boundaries and at the table's end. A quarter
// of the sets write zero, many of them to counters without storage.
// Every round starts from a fresh table, so the switch happens again
// in each.
func TestCounterTableMatchesFlatSlice(t *testing.T) {
	footprint := []int{8, sparseEntries, sparseEntries + 1, 3 * sparseEntries, CounterPageRows, 123}
	const rows = 5*CounterPageRows + 123
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		tab := NewCounterTable(rows)
		flat := make([]uint16, rows)
		// The counters each page's writes reach: its first and last two
		// rows, then random ones.
		offs := make([][]int, len(footprint))
		for p, n := range footprint {
			size := min(CounterPageRows, rows-p*CounterPageRows)
			offs[p] = []int{0, 1, size - 2, size - 1}
			for _, o := range rng.Perm(size - 4)[:n-4] {
				offs[p] = append(offs[p], o+2)
			}
		}
		index := func() uint32 {
			p := rng.Intn(len(footprint))
			k := rng.Intn(len(offs[p]))
			if rng.Intn(4) == 0 { // near a page boundary, or the table's end
				k %= 4
			}
			return uint32(p*CounterPageRows + offs[p][k])
		}
		span := func() (lo, hi uint32) {
			lo = index()
			hi = min(lo+uint32(rng.Intn(2*CounterPageRows)), rows)
			if rng.Intn(4) == 0 { // a whole page
				lo = lo / CounterPageRows * CounterPageRows
				hi = min(lo+CounterPageRows, rows)
			}
			return lo, hi
		}
		for op := 0; op < 50000; op++ {
			switch r := rng.Intn(5000); {
			case r == 0:
				tab.Clear()
				clear(flat)
			case r < 10:
				lo, hi := span()
				tab.ClearRange(lo, hi)
				clear(flat[lo:hi])
			case r < 20:
				next := 0
				tab.Walk(func(i uint32, v uint16) uint16 {
					for next < int(i) && flat[next] == 0 {
						next++
					}
					if int(i) != next || v != flat[i] {
						t.Fatalf("round %d op %d: walk visited (%d, %d), flat slice's next nonzero counter is %d", round, op, i, v, next)
					}
					next++
					if rng.Intn(3) == 0 {
						v = 0
					} else if rng.Intn(2) == 0 {
						v++
					}
					flat[i] = v
					return v
				})
				for ; next < rows; next++ {
					if flat[next] != 0 {
						t.Fatalf("round %d op %d: walk skipped counter %d = %d", round, op, next, flat[next])
					}
				}
			case r < 2250:
				i, v := index(), uint16(rng.Intn(1<<16))
				if rng.Intn(4) == 0 {
					v = 0
				}
				tab.Set(i, v)
				flat[i] = v
			default:
				if i := index(); tab.Get(i) != flat[i] {
					t.Fatalf("round %d op %d: Get(%d) = %d, flat slice holds %d", round, op, i, tab.Get(i), flat[i])
				}
			}
		}
		for i, v := range flat {
			if got := tab.Get(uint32(i)); got != v {
				t.Fatalf("round %d: final Get(%d) = %d, flat slice holds %d", round, i, got, v)
			}
		}
		for p, n := range footprint {
			dense := tab[p].dense != nil
			if n <= sparseEntries && dense {
				t.Fatalf("round %d: page %d turned dense with %d counters in reach", round, p, n)
			}
			if n == sparseEntries+1 && !dense {
				t.Fatalf("round %d: page %d never crossed the sparse→dense switch", round, p)
			}
		}
	}
}

// TestCounterTableAllocatesOnNonzeroWrite pins the paging contract:
// zero writes and reads allocate nothing, the first nonzero write in a
// page allocates its sparse array, 32 counters fit there, and the write
// that would overflow it allocates the dense page. Clear keeps both
// forms for reuse; ClearRange frees the sparse entries it covers; a
// zero written to a stored counter keeps its entry.
func TestCounterTableAllocatesOnNonzeroWrite(t *testing.T) {
	const runs = 50
	big := NewCounterTable(3 * (runs + 1) * CounterPageRows)
	page := uint32(0)
	for _, c := range []struct {
		counters int
		allocs   float64
	}{{0, 0}, {sparseEntries, 1}, {sparseEntries + 1, 2}} {
		// Each run writes a zero and c.counters nonzero counters to a
		// page never written, and reads one back.
		got := testing.AllocsPerRun(runs, func() {
			base := page * CounterPageRows
			big.Set(base+1, 0)
			for k := 0; k < c.counters; k++ {
				big.Set(base+uint32(k)*7, uint16(k+1))
			}
			big.Get(base + 2)
			page++
		})
		if got != c.allocs {
			t.Fatalf("%d counters in a fresh page cost %v allocations, want %v", c.counters, got, c.allocs)
		}
	}

	tab := NewCounterTable(3*CounterPageRows - 1)
	if len(tab) != 3 {
		t.Fatalf("%d pages for %d rows, want 3", len(tab), 3*CounterPageRows-1)
	}
	pages := func(wantSparse, wantDense int, when string) {
		t.Helper()
		if s, d := tab.Pages(); s != wantSparse || d != wantDense {
			t.Fatalf("%s: %d sparse and %d dense pages, want %d and %d", when, s, d, wantSparse, wantDense)
		}
	}
	base := uint32(CounterPageRows)
	tab.Set(2*CounterPageRows-1, 9) // 32 entries in page 1, one at its last row
	for off := uint32(0); off < sparseEntries-1; off++ {
		tab.Set(base+off*7, uint16(off+1))
	}
	tab.Set(base, 0) // a stored counter back to zero keeps its entry
	if tab[0].sparse != nil || tab[2].sparse != nil || tab.Get(2*CounterPageRows-1) != 9 {
		t.Fatal("writes to page 1 reached another page")
	}
	pages(1, 0, "with 32 entries")
	tab.ClearRange(base, base+7*4) // frees offsets 0, 7, 14, 21
	for off := uint32(1); off <= 4; off++ {
		tab.Set(base+off*7+1, 5)
	}
	pages(1, 0, "with 32 entries after a range clear")
	tab.Set(base+3, 1)
	pages(0, 1, "after the 33rd nonzero counter")
	if got := tab.Get(base + 7*10); got != 11 {
		t.Fatalf("a counter lost its value when the page turned dense: %d, want 11", got)
	}
	tab.Set(2, 4)
	pages(1, 1, "after a write to another page")
	tab.Clear()
	pages(1, 1, "after Clear")
	if tab.Get(2*CounterPageRows-1) != 0 || tab.Get(2) != 0 {
		t.Fatal("Clear must zero every page")
	}
}
