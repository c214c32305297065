package dram

import (
	"testing"
	"testing/quick"
)

func TestBaselineGeometry(t *testing.T) {
	c := Baseline()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalBanks(); got != 32 {
		t.Fatalf("TotalBanks = %d, want 32", got)
	}
	if got := c.TotalRows(); got != 4*1024*1024 {
		t.Fatalf("TotalRows = %d, want 4M", got)
	}
	if got := c.TotalBytes(); got != 32<<30 {
		t.Fatalf("TotalBytes = %d, want 32 GB", got)
	}
	if got := c.LinesPerRow(); got != 128 {
		t.Fatalf("LinesPerRow = %d, want 128", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []Config{
		{Channels: 0, RanksPerChannel: 1, BanksPerRank: 1, RowsPerBank: 1, RowBytes: 64},
		{Channels: 1, RanksPerChannel: 0, BanksPerRank: 1, RowsPerBank: 1, RowBytes: 64},
		{Channels: 1, RanksPerChannel: 1, BanksPerRank: 0, RowsPerBank: 1, RowBytes: 64},
		{Channels: 1, RanksPerChannel: 1, BanksPerRank: 1, RowsPerBank: 0, RowBytes: 64},
		{Channels: 1, RanksPerChannel: 1, BanksPerRank: 1, RowsPerBank: 1, RowBytes: 63},
		{Channels: 1, RanksPerChannel: 1, BanksPerRank: 1, RowsPerBank: 1, RowBytes: 96},
		// Non-power-of-two counts: the mapping is shifts and masks.
		{Channels: 3, RanksPerChannel: 1, BanksPerRank: 16, RowsPerBank: 1024, RowBytes: 8192},
		{Channels: 2, RanksPerChannel: 1, BanksPerRank: 12, RowsPerBank: 1024, RowBytes: 8192},
		{Channels: 2, RanksPerChannel: 1, BanksPerRank: 16, RowsPerBank: 1000, RowBytes: 8192},
		{Channels: 2, RanksPerChannel: 1, BanksPerRank: 16, RowsPerBank: 1024, RowBytes: 192},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config %+v", i, c)
		}
	}
}

// geometries are the shipped organizations the mapping quick-checks
// run on.
var geometries = map[string]Config{"baseline": Baseline(), "ddr5": DDR5()}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for name, c := range geometries {
		f := func(raw uint64) bool {
			line := raw % (uint64(c.TotalBytes()) / LineBytes)
			return c.Encode(c.Decode(line)) == line
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestDecodeFieldsInRange(t *testing.T) {
	for name, c := range geometries {
		f := func(raw uint64) bool {
			line := raw % (uint64(c.TotalBytes()) / LineBytes)
			l := c.Decode(line)
			return l.Channel >= 0 && l.Channel < c.Channels &&
				l.Rank >= 0 && l.Rank < c.RanksPerChannel &&
				l.Bank >= 0 && l.Bank < c.BanksPerRank &&
				l.Row >= 0 && l.Row < c.RowsPerBank &&
				l.Col >= 0 && l.Col < c.LinesPerRow()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestGlobalRowRoundTrip(t *testing.T) {
	for name, c := range geometries {
		f := func(raw uint32) bool {
			row := raw % uint32(c.TotalRows())
			loc := c.RowLoc(row)
			return c.GlobalRow(loc) == row
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// radixDecode and radixEncode are the division-based mapping the
// shift/mask one replaced, kept as its reference.
func radixDecode(c Config, line uint64) Loc {
	var l Loc
	for _, f := range []struct {
		dst *int
		n   int
	}{{&l.Channel, c.Channels}, {&l.Col, c.LinesPerRow()}, {&l.Bank, c.BanksPerRank}, {&l.Rank, c.RanksPerChannel}, {&l.Row, c.RowsPerBank}} {
		*f.dst = int(line % uint64(f.n))
		line /= uint64(f.n)
	}
	return l
}

func radixEncode(c Config, l Loc) uint64 {
	line := uint64(l.Row)
	line = line*uint64(c.RanksPerChannel) + uint64(l.Rank)
	line = line*uint64(c.BanksPerRank) + uint64(l.Bank)
	line = line*uint64(c.LinesPerRow()) + uint64(l.Col)
	return line*uint64(c.Channels) + uint64(l.Channel)
}

// TestShiftMappingMatchesRadix pins the shift/mask mapping to the
// radix arithmetic it replaced, on any line (in range or not) and on
// any location, so simulated results stay bitwise-identical.
func TestShiftMappingMatchesRadix(t *testing.T) {
	for name, c := range geometries {
		f := func(line uint64, l Loc, row uint32) bool {
			rowLoc := Loc{
				Channel: int(row) / c.RowsPerBank / (c.RanksPerChannel * c.BanksPerRank),
				Rank:    int(row) / c.RowsPerBank % (c.RanksPerChannel * c.BanksPerRank) / c.BanksPerRank,
				Bank:    int(row) / c.RowsPerBank % c.BanksPerRank,
				Row:     int(row) % c.RowsPerBank,
			}
			bank := (l.Channel*c.RanksPerChannel+l.Rank)*c.BanksPerRank + l.Bank
			return c.Decode(line) == radixDecode(c, line) &&
				c.Encode(l) == radixEncode(c, l) &&
				c.RowLoc(row) == rowLoc &&
				c.GlobalRow(l) == uint32(bank*c.RowsPerBank+l.Row)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestConsecutiveColumnsSameRow(t *testing.T) {
	c := Baseline()
	// Two lines that differ only in column must decode to the same
	// channel/rank/bank/row: streaming within a row is a buffer hit.
	base := c.Encode(Loc{Channel: 1, Rank: 0, Bank: 3, Row: 77, Col: 0})
	l0 := c.Decode(base)
	for col := 1; col < c.LinesPerRow(); col++ {
		l := c.Decode(c.Encode(Loc{Channel: 1, Rank: 0, Bank: 3, Row: 77, Col: col}))
		if l.Row != l0.Row || l.Bank != l0.Bank || l.Channel != l0.Channel {
			t.Fatalf("col %d moved to %+v", col, l)
		}
	}
}

func TestReservedRegionLayout(t *testing.T) {
	c := Baseline()
	r := NewReservedRegion(c, 512)
	if r.MetaRows() != 512 {
		t.Fatalf("MetaRows = %d", r.MetaRows())
	}
	// 512 rows over 32 banks = 16 rows per bank.
	if got := r.RowsPerBankReserved(); got != 16 {
		t.Fatalf("RowsPerBankReserved = %d, want 16", got)
	}
	if got := r.MaxDemandRow(); got != c.RowsPerBank-17 {
		t.Fatalf("MaxDemandRow = %d, want %d", got, c.RowsPerBank-17)
	}
}

func TestReservedRegionRoundTrip(t *testing.T) {
	c := Baseline()
	r := NewReservedRegion(c, 512)
	seen := make(map[uint32]bool)
	for i := 0; i < 512; i++ {
		row := r.GlobalRow(i)
		if seen[row] {
			t.Fatalf("metadata row %d reused global row %d", i, row)
		}
		seen[row] = true
		j, ok := r.MetaIndex(row)
		if !ok || j != i {
			t.Fatalf("MetaIndex(%d) = %d,%v; want %d,true", row, j, ok, i)
		}
	}
}

func TestReservedRegionExcludesDemandRows(t *testing.T) {
	c := Baseline()
	r := NewReservedRegion(c, 512)
	for bank := 0; bank < c.TotalBanks(); bank++ {
		row := uint32(bank*c.RowsPerBank + r.MaxDemandRow())
		if _, ok := r.MetaIndex(row); ok {
			t.Fatalf("demand row %d classified as metadata", row)
		}
	}
}

func TestReservedRegionLineAddr(t *testing.T) {
	c := Baseline()
	r := NewReservedRegion(c, 512)
	// Offsets within the same metadata row map to the same DRAM row,
	// different columns.
	a := c.Decode(r.LineAddr(0))
	b := c.Decode(r.LineAddr(64))
	if a.Row != b.Row || a.Bank != b.Bank || a.Channel != b.Channel {
		t.Fatalf("same metadata row split across DRAM rows: %+v vs %+v", a, b)
	}
	if a.Col == b.Col {
		t.Fatal("distinct offsets share a column")
	}
	// Offsets a full row apart map to different metadata rows.
	far := c.Decode(r.LineAddr(uint64(c.RowBytes)))
	if far.Row == a.Row && far.Bank == a.Bank && far.Channel == a.Channel {
		t.Fatal("offsets a row apart still share a DRAM row")
	}
}

func TestReservedRegionTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized region should panic")
		}
	}()
	c := Baseline()
	NewReservedRegion(c, c.TotalRows())
}
