package sim

// Chaos fault injection: the hooks through which a faults.Scenario
// perturbs a running system. Three injection points cover the
// mechanisms Hydra's guarantee depends on: the victim-refresh path
// (chaosDropRefresh), the periodic window reset (chaosPostpone), and
// the DRAM-resident RCT (chaosOnAct's corruption sweeps).

// ChaosStats summarizes the faults injected into one run.
type ChaosStats struct {
	// DroppedRefreshes counts mitigation decisions whose victim-refresh
	// burst was silently discarded.
	DroppedRefreshes int64
	// CorruptedEntries counts RCT counters zeroed by corruption sweeps.
	CorruptedEntries int64
	// PostponedResets counts tracking windows stretched past their
	// nominal length.
	PostponedResets int64
}

// chaosRand is a xorshift64* draw in [0,1); deterministic per seed so
// chaos campaigns are reproducible.
func (s *System) chaosRand() float64 {
	x := s.chaosRNG
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.chaosRNG = x
	return float64((x*0x2545f4914f6cdd1d)>>11) / (1 << 53)
}

// chaosOnAct runs per-activation chaos bookkeeping: spaced RCT
// corruption sweeps against the Hydra tracker.
func (s *System) chaosOnAct() {
	c := s.chaos
	if c.CorruptEveryActs <= 0 || c.CorruptRCTFrac <= 0 || s.hydra == nil {
		return
	}
	s.chaosActs++
	if s.chaosActs%c.CorruptEveryActs == 0 {
		s.chaosStats.CorruptedEntries += int64(s.hydra.CorruptRCT(c.CorruptRCTFrac, s.chaosRand))
	}
}

// chaosDropRefresh decides whether this mitigation's victim-refresh
// burst is lost between the controller and the DRAM. Only the refresh
// policy has a burst to lose.
func (s *System) chaosDropRefresh() bool {
	if s.chaos.DropRefreshProb <= 0 {
		return false
	}
	switch s.cfg.Mitigation {
	case "", MitigateRefresh:
	default:
		return false
	}
	if s.chaosRand() >= s.chaos.DropRefreshProb {
		return false
	}
	s.chaosStats.DroppedRefreshes++
	return true
}

// chaosPostpone returns the extra cycles this window reset slips by.
func (s *System) chaosPostpone() int64 {
	if s.chaos.PostponeWindows <= 0 {
		return 0
	}
	s.chaosStats.PostponedResets++
	return int64(s.chaos.PostponeWindows * float64(s.window))
}
