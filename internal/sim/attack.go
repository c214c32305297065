package sim

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mitigate"
	"repro/internal/workload"
)

// AttackSpec turns core 0 into an attacker thread that hammers the
// given rows as fast as the memory system allows, while the remaining
// cores run the configured workload (the victim programs). Combined
// with an Observer, this closes the security loop end to end: the
// oracle sees the *actual* activations the controller performs,
// including victim refreshes and metadata-row activations.
type AttackSpec struct {
	// Rows are global row ids hammered round-robin. Two-plus rows per
	// bank alternate so every access is a row-buffer conflict (an
	// activation), the classic double-sided pattern.
	Rows []uint32
	// Acts is the attacker's activation budget.
	Acts int
}

// attackStream implements cpu.TraceSource: zero-gap reads cycling the
// aggressor rows.
type attackStream struct {
	mem  dram.Config
	rows []uint32
	left int
	i    int
	col  int
}

func (a *attackStream) Next() (workload.Request, bool) {
	if a.left <= 0 {
		return workload.Request{}, false
	}
	a.left--
	row := a.rows[a.i%len(a.rows)]
	a.i++
	a.col = (a.col + 37) % a.mem.LinesPerRow()
	loc := a.mem.RowLoc(row)
	loc.Col = a.col
	return workload.Request{Gap: 0, Line: a.mem.Encode(loc)}, true
}

// installAttack checks the spec against the geometry and replaces core
// 0 with an attacker replaying it; a nil spec leaves the cores as they
// are.
func (s *System) installAttack(spec *AttackSpec) error {
	if spec == nil {
		return nil
	}
	if len(spec.Rows) == 0 || spec.Acts <= 0 {
		return fmt.Errorf("sim: attack spec needs rows and a positive budget")
	}
	total := s.cfg.Mem.TotalRows()
	for _, r := range spec.Rows {
		if int(r) >= total {
			return fmt.Errorf("sim: attack row %d out of range", r)
		}
	}
	stream := &attackStream{mem: s.cfg.Mem, rows: spec.Rows, left: spec.Acts}
	c, err := cpu.New(0, cpu.DefaultConfig(), stream, demandGate{s})
	if err != nil {
		return err
	}
	s.cores[0] = c
	return nil
}

// Observer is the activation/mitigation event consumer; when set on a
// Config, it sees every controller activation and every mitigation in
// order — the same contract as mitigate.Observer, so the attack
// package's security oracle plugs in directly.
type Observer = mitigate.Observer
