package track

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/rh"
)

// CRA implements Counter-based Row Activation tracking (Kim et al.,
// IEEE CAL 2014; paper Section 2.5): a dedicated counter per row stored
// in a reserved portion of the DRAM space, with a conventional
// line-granularity metadata cache in the memory controller. On an
// activation the counter line must be resident: a metadata-cache miss
// costs a 64-byte read, and evicting a dirty line costs a 64-byte
// write. This frequent extra traffic is what gives CRA its ~25%
// average slowdown (Figure 2).
type CRA struct {
	geom      Geometry
	threshold int
	cacheSize int
	mc        *cache.SetAssoc // line-granularity metadata cache
	counts    rh.CounterTable // authoritative per-row counters (DRAM contents)
	sink      rh.MemSink

	// Stats accumulate over the tracker lifetime.
	Mitigations int64
	Hits        int64
	MissFetches int64
	Writebacks  int64
}

const craRowsPerLine = 64 // 1-byte counters, 64-byte lines

var _ rh.Tracker = (*CRA)(nil)

// NewCRA creates a CRA tracker with the given metadata-cache capacity
// in bytes (the paper evaluates 64 KB, 128 KB and 256 KB). T_RH/2 must
// fit its 16-bit counters.
func NewCRA(geom Geometry, trh, cacheBytes int, sink rh.MemSink) (*CRA, error) {
	if geom.Rows <= 0 {
		return nil, fmt.Errorf("track: invalid geometry %+v", geom)
	}
	if trh <= 1 {
		return nil, fmt.Errorf("track: TRH must exceed 1, got %d", trh)
	}
	threshold, err := counterThreshold("CRA", trh)
	if err != nil {
		return nil, err
	}
	lines := cacheBytes / 64
	ways := 16
	if lines < ways {
		ways = lines
	}
	if lines <= 0 || lines%ways != 0 {
		return nil, fmt.Errorf("track: cacheBytes %d must give a positive multiple of %d lines", cacheBytes, ways)
	}
	mc, err := cache.New(lines, ways, cache.LRU)
	if err != nil {
		return nil, fmt.Errorf("track: sizing CRA metadata cache: %w", err)
	}
	return &CRA{
		geom:      geom,
		threshold: threshold,
		cacheSize: cacheBytes,
		mc:        mc,
		counts:    rh.NewCounterTable(geom.Rows),
		sink:      sink,
	}, nil
}

// Name implements rh.Tracker.
func (c *CRA) Name() string { return "cra" }

// Threshold returns the operating threshold (T_RH/2).
func (c *CRA) Threshold() int { return c.threshold }

func (c *CRA) line(row rh.Row) uint64 { return uint64(row) / craRowsPerLine }

// Activate implements rh.Tracker.
func (c *CRA) Activate(row rh.Row) bool {
	line := c.line(row)
	if _, ok := c.mc.Lookup(line); ok {
		c.Hits++
	} else {
		// Fetch the counter line from DRAM; evicting a dirty line
		// writes it back first.
		c.MissFetches++
		c.sink.MetaRead(line * 64)
		if victim, evicted := c.mc.Insert(line, 0, false); evicted && victim.Dirty {
			c.Writebacks++
			c.sink.MetaWrite(victim.Key * 64)
		}
	}
	c.mc.Update(line, 0) // counter update dirties the cached line
	n := c.counts.Get(uint32(row)) + 1
	mitigate := int(n) >= c.threshold
	if mitigate {
		n = 0
		c.Mitigations++
	}
	c.counts.Set(uint32(row), n)
	return mitigate
}

// MetaRows reports how many DRAM rows CRA's counters occupy: 1 byte
// per row. The original proposal does not guard these rows, which the
// attack suite demonstrates; this model keeps that published behaviour
// and implements no rh.MetaGuard.
func (c *CRA) MetaRows() int {
	rowBytes := 8192
	return (c.geom.Rows + rowBytes - 1) / rowBytes
}

// ResetWindow implements rh.Tracker: the per-refresh-period counter
// reset zeroes the counter pages allocated so far.
func (c *CRA) ResetWindow() {
	c.mc.Reset()
	c.counts.Clear()
}

// SRAMBytes implements rh.Tracker: only the metadata cache.
func (c *CRA) SRAMBytes() int { return c.cacheSize }

// Count returns the current counter of a row (for tests).
func (c *CRA) Count(row rh.Row) int { return int(c.counts.Get(uint32(row))) }
