package attack

import (
	"repro/internal/rh"
)

// MetaRowSink mounts the counter-row attack surface (Section 5.2.2):
// it converts every metadata line transfer a tracker issues into an
// activation of the DRAM row holding that line — the conservative
// worst case where no two consecutive transfers hit an open row — and
// feeds the activation back to the tracker's metadata guard (Hydra's
// RIT-ACT). The oracle sees the metadata rows under synthetic global
// row ids starting at MetaBase so violations are attributable.
type MetaRowSink struct {
	RowBytes int
	Guard    rh.MetaGuard // set after constructing the tracker
	Oracle   *Oracle
	MetaBase rh.Row

	Mitigations int64
	Transfers   int64
}

var _ rh.MemSink = (*MetaRowSink)(nil)

// MetaRead implements rh.MemSink.
func (s *MetaRowSink) MetaRead(off uint64) { s.act(off) }

// MetaWrite implements rh.MemSink.
func (s *MetaRowSink) MetaWrite(off uint64) { s.act(off) }

func (s *MetaRowSink) act(off uint64) {
	s.Transfers++
	metaRow := int(off / uint64(s.RowBytes))
	if s.Oracle != nil {
		s.Oracle.Activated(s.MetaBase + rh.Row(metaRow))
	}
	if s.Guard != nil && s.Guard.ActivateMeta(metaRow) {
		s.Mitigations++
		if s.Oracle != nil {
			s.Oracle.Mitigated(s.MetaBase + rh.Row(metaRow))
		}
	}
}
