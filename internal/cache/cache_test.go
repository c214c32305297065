package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {16, 0}, {10, 3}, {-4, 2}} {
		if _, err := New(bad[0], bad[1], LRU); err == nil {
			t.Errorf("New(%d,%d) should error", bad[0], bad[1])
		}
	}
	if _, err := New(16, 4, Policy(99)); err == nil {
		t.Error("unknown policy should error")
	}
	c := testutil.Must(New(32, 4, SRRIP))
	if c.Sets() != 8 || c.Ways() != 4 || c.Entries() != 32 {
		t.Fatalf("geometry = %d sets x %d ways", c.Sets(), c.Ways())
	}
}

func TestHitMissAccounting(t *testing.T) {
	c := testutil.Must(New(16, 4, LRU))
	if _, ok := c.Lookup(42); ok {
		t.Fatal("hit in empty cache")
	}
	c.Insert(42, 7, false)
	v, ok := c.Lookup(42)
	if !ok || v != 7 {
		t.Fatalf("Lookup(42) = %d,%v; want 7,true", v, ok)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestUpdateAndDirtyEviction(t *testing.T) {
	c := testutil.Must(New(4, 4, LRU)) // single set of 4 ways
	for k := uint64(0); k < 4; k++ {
		c.Insert(k*4, uint32(k), false) // all map to set 0
	}
	if !c.Update(0, 99) {
		t.Fatal("Update of resident key failed")
	}
	if c.Update(1234, 1) {
		t.Fatal("Update of absent key succeeded")
	}
	// Touch everything except key 0 so key 0 is LRU... but Update does
	// not promote; Lookup does. Promote keys 4, 8, 12.
	c.Lookup(4)
	c.Lookup(8)
	c.Lookup(12)
	victim, evicted := c.Insert(16, 1, false)
	if !evicted {
		t.Fatal("expected an eviction")
	}
	if victim.Key != 0 || victim.Val != 99 || !victim.Dirty {
		t.Fatalf("victim = %+v, want key 0 val 99 dirty", victim)
	}
	if c.DirtyEvict != 1 {
		t.Fatalf("DirtyEvict = %d, want 1", c.DirtyEvict)
	}
}

func TestInsertResidentUpdates(t *testing.T) {
	c := testutil.Must(New(8, 2, LRU))
	c.Insert(5, 1, false)
	if _, ev := c.Insert(5, 2, true); ev {
		t.Fatal("re-insert evicted something")
	}
	v, ok := c.Lookup(5)
	if !ok || v != 2 {
		t.Fatalf("value after re-insert = %d,%v", v, ok)
	}
	if c.ValidCount() != 1 {
		t.Fatalf("ValidCount = %d, want 1", c.ValidCount())
	}
}

func TestSRRIPHitPromotion(t *testing.T) {
	c := testutil.Must(New(4, 4, SRRIP))
	for k := uint64(0); k < 4; k++ {
		c.Insert(k*4, 0, false)
	}
	// Promote key 0 (RRPV -> 0); others stay at fill RRPV 2.
	c.Lookup(0)
	victim, evicted := c.Insert(16, 0, false)
	if !evicted {
		t.Fatal("expected eviction")
	}
	if victim.Key == 0 {
		t.Fatal("SRRIP evicted the just-promoted entry")
	}
}

func TestInvalidate(t *testing.T) {
	c := testutil.Must(New(8, 2, LRU))
	c.Insert(3, 9, true)
	e, ok := c.Invalidate(3)
	if !ok || e.Val != 9 || !e.Dirty {
		t.Fatalf("Invalidate = %+v,%v", e, ok)
	}
	if _, ok := c.Invalidate(3); ok {
		t.Fatal("double invalidate succeeded")
	}
	if c.Contains(3) {
		t.Fatal("invalidated key still resident")
	}
}

func TestReset(t *testing.T) {
	c := testutil.Must(New(8, 2, SRRIP))
	c.Insert(1, 1, true)
	c.Lookup(1)
	c.Lookup(2)
	c.Reset()
	if c.ValidCount() != 0 || c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("state after reset: valid=%d hits=%d misses=%d", c.ValidCount(), c.Hits, c.Misses)
	}
}

// Property: the cache never holds more entries than its capacity, never
// holds duplicates, and a Lookup immediately after Insert always hits.
func TestCacheInvariants(t *testing.T) {
	for _, policy := range []Policy{LRU, SRRIP} {
		c := testutil.Must(New(64, 8, policy))
		f := func(keys []uint16) bool {
			for _, k := range keys {
				key := uint64(k % 512)
				c.Insert(key, uint32(k), k%2 == 0)
				if _, ok := c.Lookup(key); !ok {
					return false
				}
			}
			if c.ValidCount() > c.Entries() {
				return false
			}
			seen := map[uint64]int{}
			for _, k := range keys {
				key := uint64(k % 512)
				if c.Contains(key) {
					seen[key]++
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
	}
}

// Property: every insert of a non-resident key into a full set reports
// exactly one eviction, so occupancy is conserved.
func TestEvictionConservation(t *testing.T) {
	c := testutil.Must(New(4, 4, LRU))
	inserted := 0
	evictions := 0
	for k := uint64(0); k < 100; k++ {
		key := k * 4 // all in set 0
		_, ev := c.Insert(key, 0, false)
		inserted++
		if ev {
			evictions++
		}
	}
	if got := inserted - evictions; got != c.ValidCount() {
		t.Fatalf("occupancy %d != inserted-evicted %d", c.ValidCount(), got)
	}
}
