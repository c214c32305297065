package track

import (
	"fmt"
	"math"

	"repro/internal/rh"
	"repro/internal/rngstream"
)

// PARA is the stateless probabilistic tracker of Kim et al. (ISCA
// 2014): every activation triggers a mitigation with probability p.
// There is no guaranteed detection, only a statistical one, and p must
// grow as T_RH shrinks, which is why the paper dismisses it at
// ultra-low thresholds (Section 7.3).
type PARA struct {
	p       float64
	pFixed  uint64 // p scaled to 2^32 for a branch-free comparison
	rng     rngstream.SplitMix64
	trh     int
	failure float64

	// Mitigations counts mitigations issued over the tracker lifetime.
	Mitigations int64
}

var _ rh.Tracker = (*PARA)(nil)

// NewPARA creates a PARA tracker whose probability is derived from the
// target T_RH and a per-row-per-window failure probability: p solves
// (1-p)^TRH = failProb, i.e. the chance that a row survives T_RH
// activations without a single mitigation.
func NewPARA(trh int, failProb float64, seed uint64) (*PARA, error) {
	if trh <= 1 {
		return nil, fmt.Errorf("track: TRH must exceed 1, got %d", trh)
	}
	if failProb <= 0 || failProb >= 1 {
		return nil, fmt.Errorf("track: failProb must be in (0,1), got %v", failProb)
	}
	p := 1 - math.Pow(failProb, 1/float64(trh))
	return &PARA{
		p:       p,
		pFixed:  uint64(p * float64(1<<32)),
		rng:     rngstream.SplitMix64{State: seed},
		trh:     trh,
		failure: failProb,
	}, nil
}

// MustNewPARA is NewPARA for statically valid parameters.
func MustNewPARA(trh int, failProb float64, seed uint64) *PARA {
	t, err := NewPARA(trh, failProb, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements rh.Tracker.
func (p *PARA) Name() string { return "para" }

// Probability returns the per-activation mitigation probability.
func (p *PARA) Probability() float64 { return p.p }

// Activate implements rh.Tracker.
func (p *PARA) Activate(rh.Row) bool {
	if p.rng.Next()&0xFFFFFFFF < p.pFixed {
		p.Mitigations++
		return true
	}
	return false
}

// ActivateMeta implements rh.Tracker; PARA has no DRAM metadata.
func (p *PARA) ActivateMeta(int) bool { return false }

// MetaRows implements rh.Tracker.
func (p *PARA) MetaRows() int { return 0 }

// ResetWindow implements rh.Tracker; PARA is stateless.
func (p *PARA) ResetWindow() {}

// SRAMBytes implements rh.Tracker: PARA needs only an RNG.
func (p *PARA) SRAMBytes() int { return 8 }
