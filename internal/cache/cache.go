// Package cache implements a generic set-associative cache used by two
// very different metadata caches in this repo:
//
//   - Hydra's Row-Count Cache (RCC), organized at the granularity of a
//     single row counter and tagged by row address with SRRIP
//     replacement (paper Section 4.4, Table 4);
//   - CRA's metadata cache, organized like a conventional cache at
//     64-byte line granularity with LRU replacement (paper Section 2.5).
//
// Each entry carries a 32-bit payload owned by the caller (a counter
// value for the RCC; unused for CRA, which keeps counters in its
// backing array and uses the cache only for residency and dirtiness).
package cache

import "fmt"

// Policy selects the replacement policy.
type Policy int

const (
	// LRU replaces the least-recently-used way.
	LRU Policy = iota
	// SRRIP implements 2-bit static re-reference interval prediction:
	// hits reset the RRPV to 0, fills insert at RRPV 2, and the victim
	// is the first way with RRPV 3 (aging all ways until one exists).
	SRRIP
)

const srripMax = 3 // 2-bit RRPV

// Entry is the externally visible state of one cache entry, returned
// on eviction so the caller can write back dirty state.
type Entry struct {
	Key   uint64
	Val   uint32
	Dirty bool
}

type way struct {
	key   uint64
	val   uint32
	valid bool
	dirty bool
	rrpv  uint8
	used  uint64 // LRU timestamp
}

// SetAssoc is a set-associative cache of uint64 keys. It is not safe
// for concurrent use.
type SetAssoc struct {
	sets   int
	ways   int
	policy Policy
	data   []way
	clock  uint64

	// Stats accumulate across the cache's lifetime until Reset.
	Hits       int64
	Misses     int64
	Evictions  int64
	DirtyEvict int64
}

// New creates a cache with the given total entry count and
// associativity. Entries must be a positive multiple of ways.
func New(entries, ways int, policy Policy) (*SetAssoc, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("cache: entries=%d must be a positive multiple of ways=%d", entries, ways)
	}
	if policy != LRU && policy != SRRIP {
		return nil, fmt.Errorf("cache: unknown policy %d", policy)
	}
	return &SetAssoc{
		sets:   entries / ways,
		ways:   ways,
		policy: policy,
		data:   make([]way, entries),
	}, nil
}

// Entries returns the total capacity in entries.
func (c *SetAssoc) Entries() int { return c.sets * c.ways }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// setIndex mixes the key before the modulo so structured keys (bank
// bits at power-of-two strides) spread over all sets; hardware caches
// achieve the same with XOR-folded index bits.
func (c *SetAssoc) set(key uint64) []way {
	h := key
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	s := int(h % uint64(c.sets))
	return c.data[s*c.ways : (s+1)*c.ways]
}

// Lookup probes the cache. On a hit it promotes the entry per the
// replacement policy and returns its current value.
func (c *SetAssoc) Lookup(key uint64) (val uint32, ok bool) {
	ws := c.set(key)
	for i := range ws {
		if ws[i].valid && ws[i].key == key {
			c.Hits++
			c.touch(&ws[i])
			return ws[i].val, true
		}
	}
	c.Misses++
	return 0, false
}

// Peek probes without promoting the entry or counting a hit/miss; it
// is meant for introspection and tests.
func (c *SetAssoc) Peek(key uint64) (val uint32, ok bool) {
	ws := c.set(key)
	for i := range ws {
		if ws[i].valid && ws[i].key == key {
			return ws[i].val, true
		}
	}
	return 0, false
}

// Contains probes without promoting or counting a hit/miss.
func (c *SetAssoc) Contains(key uint64) bool {
	ws := c.set(key)
	for i := range ws {
		if ws[i].valid && ws[i].key == key {
			return true
		}
	}
	return false
}

func (c *SetAssoc) touch(w *way) {
	c.clock++
	w.used = c.clock
	w.rrpv = 0
}

// Update overwrites the value of a resident entry and marks it dirty.
// It reports whether the key was resident.
func (c *SetAssoc) Update(key uint64, val uint32) bool {
	ws := c.set(key)
	for i := range ws {
		if ws[i].valid && ws[i].key == key {
			ws[i].val = val
			ws[i].dirty = true
			return true
		}
	}
	return false
}

// Insert fills the cache with key/val (marked dirty if dirty is set).
// If a valid entry must be displaced it is returned with evicted=true;
// the caller is responsible for writing back dirty victims. Inserting a
// key that is already resident just updates it.
func (c *SetAssoc) Insert(key uint64, val uint32, dirty bool) (victim Entry, evicted bool) {
	ws := c.set(key)
	// Already resident: update in place.
	for i := range ws {
		if ws[i].valid && ws[i].key == key {
			ws[i].val = val
			ws[i].dirty = ws[i].dirty || dirty
			c.touch(&ws[i])
			return Entry{}, false
		}
	}
	// Free way.
	for i := range ws {
		if !ws[i].valid {
			c.fill(&ws[i], key, val, dirty)
			return Entry{}, false
		}
	}
	// Choose a victim.
	vi := c.victim(ws)
	victim = Entry{Key: ws[vi].key, Val: ws[vi].val, Dirty: ws[vi].dirty}
	c.Evictions++
	if victim.Dirty {
		c.DirtyEvict++
	}
	c.fill(&ws[vi], key, val, dirty)
	return victim, true
}

func (c *SetAssoc) fill(w *way, key uint64, val uint32, dirty bool) {
	c.clock++
	*w = way{key: key, val: val, valid: true, dirty: dirty, used: c.clock}
	if c.policy == SRRIP {
		w.rrpv = srripMax - 1 // long re-reference interval on fill
	}
}

func (c *SetAssoc) victim(ws []way) int {
	switch c.policy {
	case LRU:
		vi := 0
		for i := 1; i < len(ws); i++ {
			if ws[i].used < ws[vi].used {
				vi = i
			}
		}
		return vi
	case SRRIP:
		for {
			for i := range ws {
				if ws[i].rrpv >= srripMax {
					return i
				}
			}
			for i := range ws {
				ws[i].rrpv++
			}
		}
	default:
		panic("cache: unknown policy")
	}
}

// Invalidate removes a key if resident, returning its entry so dirty
// state can be written back.
func (c *SetAssoc) Invalidate(key uint64) (Entry, bool) {
	ws := c.set(key)
	for i := range ws {
		if ws[i].valid && ws[i].key == key {
			e := Entry{Key: ws[i].key, Val: ws[i].val, Dirty: ws[i].dirty}
			ws[i] = way{}
			return e, true
		}
	}
	return Entry{}, false
}

// Reset invalidates every entry and clears statistics. Hydra resets its
// RCC every tracking window (paper Section 4.6).
func (c *SetAssoc) Reset() {
	for i := range c.data {
		c.data[i] = way{}
	}
	c.clock = 0
	c.Hits, c.Misses, c.Evictions, c.DirtyEvict = 0, 0, 0, 0
}

// ValidCount returns the number of valid entries (for tests).
func (c *SetAssoc) ValidCount() int {
	n := 0
	for i := range c.data {
		if c.data[i].valid {
			n++
		}
	}
	return n
}
