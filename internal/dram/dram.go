// Package dram models DRAM geometry and physical address mapping for
// the baseline system of the paper (Table 2): 32 GB of DDR4 organized
// as 2 channels x 1 rank x 16 banks with 8 KB rows.
//
// The package owns three responsibilities:
//
//   - Geometry: counts of channels/ranks/banks/rows and derived values
//     such as the total number of rows (4 M for the baseline).
//   - Address mapping: decoding a physical line address into a
//     (channel, rank, bank, row, column) location and composing global
//     row identifiers. The mapping places the channel bits lowest (for
//     channel-level parallelism), then the column bits (so streaming
//     accesses within a row stay row-buffer hits), then bank, then row.
//   - Reserved metadata region: the layout of tracker metadata (e.g.
//     Hydra's Row-Count Table) in the top rows of each bank.
//
// Every count — channels, ranks per channel, banks per rank, rows per
// bank and lines per row — must be a power of two (Validate enforces
// it), as in real address-interleaving hardware. Each field of an
// address is then a bit range, and the mapping is pure shifts and masks
// with no division on the per-request path.
package dram

import (
	"fmt"
	"math/bits"
)

// LineBytes is the size of one memory line (one 64-byte transfer).
const LineBytes = 64

// Config describes the memory geometry.
type Config struct {
	Channels        int // independent channels, each with its own bus
	RanksPerChannel int
	BanksPerRank    int
	RowsPerBank     int
	RowBytes        int // bytes per row (row-buffer size)
}

// Baseline returns the paper's Table 2 configuration: 32 GB DDR4,
// 2 channels x 1 rank x 16 banks, 8 KB rows (131072 rows per bank).
func Baseline() Config {
	return Config{
		Channels:        2,
		RanksPerChannel: 1,
		BanksPerRank:    16,
		RowsPerBank:     131072,
		RowBytes:        8192,
	}
}

// DDR5 returns a DDR5-style organization of the same 32 GB capacity:
// twice the banks per rank (the change that doubles per-bank trackers'
// storage in Table 5) with correspondingly fewer rows per bank.
func DDR5() Config {
	return Config{
		Channels:        2,
		RanksPerChannel: 1,
		BanksPerRank:    32,
		RowsPerBank:     65536,
		RowBytes:        8192,
	}
}

// Validate reports an error if any field is non-positive, the row is
// not a whole number of lines, or a count is not a power of two.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram: Channels must be positive, got %d", c.Channels)
	case c.RanksPerChannel <= 0:
		return fmt.Errorf("dram: RanksPerChannel must be positive, got %d", c.RanksPerChannel)
	case c.BanksPerRank <= 0:
		return fmt.Errorf("dram: BanksPerRank must be positive, got %d", c.BanksPerRank)
	case c.RowsPerBank <= 0:
		return fmt.Errorf("dram: RowsPerBank must be positive, got %d", c.RowsPerBank)
	case c.RowBytes < LineBytes || c.RowBytes%LineBytes != 0:
		return fmt.Errorf("dram: RowBytes must be a positive multiple of %d, got %d", LineBytes, c.RowBytes)
	case !pow2(c.Channels) || !pow2(c.RanksPerChannel) || !pow2(c.BanksPerRank) ||
		!pow2(c.RowsPerBank) || !pow2(c.LinesPerRow()):
		return fmt.Errorf("dram: channel, rank, bank, row and column counts must be powers of two, got %+v", c)
	}
	return nil
}

func pow2(n int) bool { return n&(n-1) == 0 }

// log2 returns the bit width of a power-of-two count. The mask bounds
// the result (it is 64 only for n = 0, which Validate rejects), which
// lets the compiler emit bare shifts by it.
func log2(n int) uint { return uint(bits.TrailingZeros64(uint64(n))) & 63 }

// TotalBanks returns the number of banks across the whole system.
func (c Config) TotalBanks() int {
	return c.Channels * c.RanksPerChannel * c.BanksPerRank
}

// TotalRows returns the number of rows across the whole system.
func (c Config) TotalRows() int {
	return c.TotalBanks() * c.RowsPerBank
}

// TotalBytes returns the memory capacity in bytes.
func (c Config) TotalBytes() int64 {
	return int64(c.TotalRows()) * int64(c.RowBytes)
}

// LinesPerRow returns the number of 64-byte lines per row (columns).
func (c Config) LinesPerRow() int {
	return c.RowBytes / LineBytes
}

// Loc identifies one line's position in the memory system.
type Loc struct {
	Channel int
	Rank    int
	Bank    int
	Row     int // row index within the bank
	Col     int // line index within the row
}

// Decode maps a line address (byte address >> 6) to its location.
// Bit layout, low to high: channel | column | bank | rank | row.
func (c Config) Decode(line uint64) Loc {
	lines := c.RowBytes / LineBytes
	ch := int(line & uint64(c.Channels-1))
	line >>= log2(c.Channels)
	col := int(line & uint64(lines-1))
	line >>= log2(lines)
	bank := int(line & uint64(c.BanksPerRank-1))
	line >>= log2(c.BanksPerRank)
	rank := int(line & uint64(c.RanksPerChannel-1))
	line >>= log2(c.RanksPerChannel)
	return Loc{Channel: ch, Rank: rank, Bank: bank, Row: int(line & uint64(c.RowsPerBank-1)), Col: col}
}

// Encode is the inverse of Decode. Each shift stands for the radix
// multiplication it replaces, so even an out-of-range field carries
// into the next one exactly as before.
func (c Config) Encode(l Loc) uint64 {
	line := uint64(l.Row)
	line = line<<log2(c.RanksPerChannel) + uint64(l.Rank)
	line = line<<log2(c.BanksPerRank) + uint64(l.Bank)
	line = line<<log2(c.RowBytes/LineBytes) + uint64(l.Col)
	line = line<<log2(c.Channels) + uint64(l.Channel)
	return line
}

// GlobalRow composes a system-wide row identifier from a location.
// Rows of the same bank are contiguous, so row +/- 1 within a bank is
// global row +/- 1, which makes blast-radius arithmetic trivial.
func (c Config) GlobalRow(l Loc) uint32 {
	bank := (l.Channel<<log2(c.RanksPerChannel)+l.Rank)<<log2(c.BanksPerRank) + l.Bank
	return uint32(bank<<log2(c.RowsPerBank) + l.Row)
}

// RowLoc returns the (channel, rank, bank, row) of a global row id.
// Col is always 0.
func (c Config) RowLoc(row uint32) Loc {
	r := int(row)
	bankGlobal := r >> log2(c.RowsPerBank)
	rest := bankGlobal & (c.RanksPerChannel*c.BanksPerRank - 1)
	return Loc{
		Channel: bankGlobal >> (log2(c.RanksPerChannel) + log2(c.BanksPerRank)),
		Rank:    rest >> log2(c.BanksPerRank),
		Bank:    rest & (c.BanksPerRank - 1),
		Row:     r & (c.RowsPerBank - 1),
	}
}
