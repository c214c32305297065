package dram

// ReservedRegion describes where tracker metadata (such as Hydra's
// Row-Count Table) lives in the addressable DRAM space. Following the
// paper (Section 4.4), the region is a small reserved slice of memory:
// 4 MB (512 rows) for the 32 GB baseline. We place the reserved rows in
// the top rows of the banks, striped round-robin across all banks so
// that metadata traffic enjoys bank-level parallelism.
type ReservedRegion struct {
	cfg      Config
	metaRows int
}

// NewReservedRegion lays out metaRows rows of metadata at the top of
// the row space. It panics if the region would not fit, since that is a
// configuration error.
func NewReservedRegion(cfg Config, metaRows int) *ReservedRegion {
	perBank := (metaRows + cfg.TotalBanks() - 1) / cfg.TotalBanks()
	if perBank >= cfg.RowsPerBank {
		panic("dram: reserved metadata region larger than a bank")
	}
	return &ReservedRegion{cfg: cfg, metaRows: metaRows}
}

// MetaRows returns the number of reserved rows.
func (r *ReservedRegion) MetaRows() int { return r.metaRows }

// RowsPerBankReserved returns how many rows each bank loses to the
// region (rounded up; the last stripe may be partial).
func (r *ReservedRegion) RowsPerBankReserved() int {
	return (r.metaRows + r.cfg.TotalBanks() - 1) / r.cfg.TotalBanks()
}

// GlobalRow returns the global row id of the i-th metadata row.
// Metadata row i lives in bank i mod totalBanks, at row
// rowsPerBank-1-(i div totalBanks) of that bank.
func (r *ReservedRegion) GlobalRow(i int) uint32 {
	if i < 0 || i >= r.metaRows {
		panic("dram: metadata row index out of range")
	}
	banks := r.cfg.TotalBanks()
	bank := i & (banks - 1)
	row := r.cfg.RowsPerBank - 1 - i>>log2(banks)
	return uint32(bank<<log2(r.cfg.RowsPerBank) + row)
}

// MetaIndex reports whether the global row is a metadata row and, if
// so, its index within the region.
func (r *ReservedRegion) MetaIndex(row uint32) (int, bool) {
	inBank := int(row) & (r.cfg.RowsPerBank - 1)
	bank := int(row) >> log2(r.cfg.RowsPerBank)
	depth := r.cfg.RowsPerBank - 1 - inBank
	if depth < 0 {
		return 0, false
	}
	i := depth*r.cfg.TotalBanks() + bank
	if i >= r.metaRows {
		return 0, false
	}
	return i, true
}

// LineAddr maps a byte offset within the metadata region to the line
// address holding it. Offsets within one row map to consecutive lines
// of the same metadata row.
func (r *ReservedRegion) LineAddr(offset uint64) uint64 {
	lineInRegion := offset / LineBytes
	metaRow := int(lineInRegion >> log2(r.cfg.LinesPerRow()))
	col := int(lineInRegion & uint64(r.cfg.LinesPerRow()-1))
	loc := r.cfg.RowLoc(r.GlobalRow(metaRow))
	loc.Col = col
	return r.cfg.Encode(loc)
}

// MaxDemandRow returns the largest in-bank row index a demand access
// may use without touching the reserved region. Workload generators use
// this bound.
func (r *ReservedRegion) MaxDemandRow() int {
	return r.cfg.RowsPerBank - r.RowsPerBankReserved() - 1
}
