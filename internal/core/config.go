package core

import (
	"fmt"
	"math/bits"
)

// Config parameterizes a Hydra tracker. The zero value is not valid;
// use Default or fill every field and call Validate.
type Config struct {
	// Rows is the number of DRAM rows tracked (4 M for the paper's
	// 32 GB baseline).
	Rows int

	// TRH is the row-hammer threshold the design must tolerate: the
	// minimum activations to a row within a refresh period that could
	// induce bit-flips (500 by default).
	TRH int

	// TH is Hydra's tracking threshold. Because the periodic reset
	// halves the tolerated threshold (Section 4.6), TH must be at most
	// TRH/2. Zero derives TRH/2.
	TH int

	// TG is the GCT threshold at which a group switches from
	// aggregated to per-row tracking. Zero derives 80% of TH, the
	// paper's default (Section 6.6).
	TG int

	// GCTEntries is the number of GCT counters (32 K default). Rows
	// mapping to the same entry form a row-group.
	GCTEntries int

	// RCCEntries and RCCWays size the row-count cache (8 K entries,
	// 16 ways by default).
	RCCEntries int
	RCCWays    int

	// RCCUseLRU switches the RCC to LRU replacement; the default is
	// the paper's SRRIP (Table 4 budgets 2 bits per entry for it).
	// Exposed for the replacement-policy ablation bench.
	RCCUseLRU bool

	// RowBytes is the DRAM row size, used to compute how many DRAM
	// rows the RCT occupies (8 KB default).
	RowBytes int

	// NoGCT disables the group-count filter: every activation uses
	// per-row tracking (the Hydra-NoGCT ablation of Figure 8).
	NoGCT bool

	// NoRCC disables the row-count cache: every per-row update is a
	// read-modify-write of the RCT in DRAM (Hydra-NoRCC, Figure 8).
	NoRCC bool

	// Randomize enables the randomized group mapping of footnote 4:
	// row addresses pass through a keyed block cipher before indexing
	// the GCT and RCT, and the key changes every tracking window.
	Randomize bool

	// Seed seeds the randomized mapping.
	Seed uint64
}

// Default returns the paper's default configuration for the 32 GB
// baseline at T_RH = 500: 32 K-entry GCT, 8 K-entry 16-way RCC,
// T_H = 250, T_G = 200.
func Default() Config {
	return Config{
		Rows:       4 * 1024 * 1024,
		TRH:        500,
		GCTEntries: 32 * 1024,
		RCCEntries: 8 * 1024,
		RCCWays:    16,
		RowBytes:   8192,
	}
}

// ForThreshold returns the default configuration scaled for a different
// row-hammer threshold: halving T_RH doubles the GCT and RCC, matching
// the paper's sensitivity study (Section 6.3, "structures scaled
// proportionately"). The RCC rounds up to whole sets, which Validate
// requires.
func ForThreshold(trh int) Config {
	c := Default()
	if trh <= 0 {
		return c
	}
	c.TRH = trh
	scale := 500.0 / float64(trh)
	c.GCTEntries = scaleEntries(32*1024, scale)
	sets := (scaleEntries(8*1024, scale) + c.RCCWays - 1) / c.RCCWays
	c.RCCEntries = sets * c.RCCWays
	return c
}

func scaleEntries(base int, scale float64) int {
	n := int(float64(base)*scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// withDefaults returns a copy with derived fields filled in.
func (c Config) withDefaults() Config {
	if c.TH == 0 {
		c.TH = c.TRH / 2
	}
	if c.TG == 0 {
		c.TG = c.TH * 4 / 5
	}
	if c.RowBytes == 0 {
		c.RowBytes = 8192
	}
	return c
}

// Validate reports an error for inconsistent configurations.
func (c Config) Validate() error {
	d := c.withDefaults()
	switch {
	case d.Rows <= 0:
		return fmt.Errorf("core: Rows must be positive, got %d", d.Rows)
	case d.TRH <= 1:
		return fmt.Errorf("core: TRH must exceed 1, got %d", d.TRH)
	case d.TH <= 0 || d.TH > d.TRH/2:
		return fmt.Errorf("core: TH must be in (0, TRH/2=%d], got %d", d.TRH/2, d.TH)
	case d.TG <= 0 || d.TG >= d.TH:
		return fmt.Errorf("core: TG must be in (0, TH=%d), got %d", d.TH, d.TG)
	case !d.NoGCT && d.GCTEntries <= 0:
		return fmt.Errorf("core: GCTEntries must be positive, got %d", d.GCTEntries)
	case !d.NoRCC && (d.RCCEntries <= 0 || d.RCCWays <= 0 || d.RCCEntries%d.RCCWays != 0):
		return fmt.Errorf("core: RCC geometry invalid: %d entries, %d ways", d.RCCEntries, d.RCCWays)
	case d.RowBytes <= 0:
		return fmt.Errorf("core: RowBytes must be positive, got %d", d.RowBytes)
	case d.NoGCT && d.NoRCC:
		return fmt.Errorf("core: NoGCT and NoRCC cannot both be set; that leaves no structure to absorb updates cheaply (use the CRA baseline instead)")
	}
	return nil
}

// GroupSize returns how many rows share one GCT entry (128 for the
// default configuration).
func (c Config) GroupSize() int {
	d := c.withDefaults()
	if d.NoGCT || d.GCTEntries <= 0 {
		return 1
	}
	return (d.Rows + d.GCTEntries - 1) / d.GCTEntries
}

// RCTEntryBytes returns the storage per RCT entry: one byte while TH
// fits (the paper's case), two bytes otherwise.
func (c Config) RCTEntryBytes() int {
	d := c.withDefaults()
	if d.TH <= 0xFF {
		return 1
	}
	return 2
}

// RCTBytes returns the DRAM footprint of the row-count table (4 MB for
// the baseline).
func (c Config) RCTBytes() int {
	return c.Rows * c.RCTEntryBytes()
}

// MetaRows returns how many DRAM rows the RCT occupies (512 for the
// baseline), which is also the number of RIT-ACT guard counters
// (Section 5.2.2).
func (c Config) MetaRows() int {
	d := c.withDefaults()
	return (c.RCTBytes() + d.RowBytes - 1) / d.RowBytes
}

// bitsFor returns the bits needed to represent values 0..n.
func bitsFor(n int) int {
	if n <= 0 {
		return 1
	}
	return bits.Len(uint(n))
}

// StorageBreakdown itemizes Hydra's SRAM cost, reproducing Table 4.
type StorageBreakdown struct {
	GCTEntryBits    int
	GCTEntries      int
	GCTBytes        int
	RCCEntryBits    int // valid + tag + SRRIP + counter
	RCCEntries      int
	RCCBytes        int
	RITActEntryBits int
	RITActEntries   int
	RITActBytes     int
	TotalBytes      int
}

// Storage computes the SRAM storage breakdown for the configuration.
// Entry widths are rounded up to whole bits exactly as the paper does
// (Table 4): an 8-bit GCT counter for T_G=200, a 24-bit RCC entry
// (valid + 13-bit tag + 2-bit SRRIP + 8-bit count), and 8-bit RIT-ACT
// counters.
func (c Config) Storage() StorageBreakdown {
	d := c.withDefaults()
	var s StorageBreakdown

	if !d.NoGCT {
		s.GCTEntryBits = roundBits(bitsFor(d.TG))
		s.GCTEntries = d.GCTEntries
		s.GCTBytes = s.GCTEntryBits * s.GCTEntries / 8
	}
	if !d.NoRCC {
		sets := d.RCCEntries / d.RCCWays
		tagBits := bitsFor(d.Rows-1) - bitsFor(sets-1)
		if tagBits < 1 {
			tagBits = 1
		}
		s.RCCEntryBits = 1 + tagBits + 2 + roundBits(bitsFor(d.TH))
		s.RCCEntries = d.RCCEntries
		s.RCCBytes = s.RCCEntryBits * s.RCCEntries / 8
	}
	s.RITActEntryBits = roundBits(bitsFor(d.TH))
	s.RITActEntries = d.MetaRows()
	s.RITActBytes = s.RITActEntryBits * s.RITActEntries / 8
	s.TotalBytes = s.GCTBytes + s.RCCBytes + s.RITActBytes
	return s
}

// roundBits rounds a bit width up to a whole number of bytes' worth of
// bits when close, mirroring how the paper sizes counters (e.g. T_G=200
// needs 8 bits).
func roundBits(b int) int {
	if b <= 8 {
		return 8
	}
	return (b + 7) / 8 * 8
}
