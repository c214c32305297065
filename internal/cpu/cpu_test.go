package cpu

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/memsim"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// sliceTrace replays a fixed request list.
type sliceTrace struct {
	reqs []workload.Request
	i    int
}

func (s *sliceTrace) Next() (workload.Request, bool) {
	if s.i >= len(s.reqs) {
		return workload.Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

// runSystem runs cores and mem to completion the way sim.Run does: a
// core steps while it is strictly earliest, otherwise memory runs one
// epoch bounded by the earliest core event.
func runSystem(t *testing.T, cores []*Core, mem *memsim.Memory) {
	t.Helper()
	for steps := 0; steps < 50_000_000; steps++ {
		next, coreMin := mem.NextTime(), memsim.Infinity
		var core *Core
		for _, c := range cores {
			tt := c.NextTime()
			coreMin = min(coreMin, tt)
			if tt < next {
				next = tt
				core = c
			}
		}
		if next == memsim.Infinity {
			for _, c := range cores {
				if !c.Done() {
					t.Fatalf("deadlock: core %d not done (%s)", c.ID(), c.Debug())
				}
			}
			return
		}
		if core != nil {
			core.Step()
		} else {
			mem.RunEpoch(coreMin)
		}
	}
	t.Fatal("system did not terminate")
}

func line(mem dram.Config, bank, row, col int) uint64 {
	return mem.Encode(dram.Loc{Bank: bank, Row: row, Col: col})
}

func TestComputeBoundCoreSpeed(t *testing.T) {
	mem := memsim.New(memsim.DefaultConfig(dram.Baseline()))
	dcfg := dram.Baseline()
	// 100 reads with huge gaps: runtime dominated by fetch, ~gap/width
	// cycles per record.
	var reqs []workload.Request
	for i := 0; i < 100; i++ {
		reqs = append(reqs, workload.Request{Gap: 4000, Line: line(dcfg, i%16, 5, i%128)})
	}
	c := testutil.Must(New(0, DefaultConfig(), &sliceTrace{reqs: reqs}, mem))
	runSystem(t, []*Core{c}, mem)
	wantMin := int64(100 * 4000 / 4)
	if c.FinishTime() < wantMin {
		t.Fatalf("finish = %d, want >= %d (fetch-bound)", c.FinishTime(), wantMin)
	}
	if c.FinishTime() > wantMin*110/100 {
		t.Fatalf("finish = %d, want ~%d: compute-bound run should hide memory latency", c.FinishTime(), wantMin)
	}
	if c.Insts != 100*4001 {
		t.Fatalf("insts = %d", c.Insts)
	}
}

func TestMemoryBoundCoreStalls(t *testing.T) {
	dcfg := dram.Baseline()
	mem := memsim.New(memsim.DefaultConfig(dcfg))
	// Zero-gap reads to a single bank and row: the run is bus/bank
	// bound and the ROB must stall.
	var reqs []workload.Request
	for i := 0; i < 400; i++ {
		reqs = append(reqs, workload.Request{Gap: 0, Line: line(dcfg, 0, 10, i%128)})
	}
	c := testutil.Must(New(0, DefaultConfig(), &sliceTrace{reqs: reqs}, mem))
	runSystem(t, []*Core{c}, mem)
	if c.StallFor == 0 {
		t.Fatal("memory-bound core never stalled")
	}
	// 400 transfers cannot beat data-bus pacing.
	if minTime := int64(400) * memsim.DDR4().TBURST; c.FinishTime() < minTime {
		t.Fatalf("finish = %d, faster than the bus allows (%d)", c.FinishTime(), minTime)
	}
	// Alternating-row conflicts must be slower than the streaming run.
	mem2 := memsim.New(memsim.DefaultConfig(dcfg))
	var reqs2 []workload.Request
	for i := 0; i < 400; i++ {
		reqs2 = append(reqs2, workload.Request{Gap: 0, Line: line(dcfg, 0, 10+(i%2)*10, 0)})
	}
	c2 := testutil.Must(New(0, DefaultConfig(), &sliceTrace{reqs: reqs2}, mem2))
	runSystem(t, []*Core{c2}, mem2)
	if c2.FinishTime() <= c.FinishTime() {
		t.Fatalf("row conflicts (%d) not slower than streaming (%d)", c2.FinishTime(), c.FinishTime())
	}
}

func TestROBLimitsOutstandingReads(t *testing.T) {
	dcfg := dram.Baseline()
	mem := memsim.New(memsim.DefaultConfig(dcfg))
	// With gap 39 (10 cycles of fetch per record), a 160-entry ROB
	// admits only 4 in-flight reads; a huge ROB admits many more and
	// must finish sooner by overlapping latencies.
	mkReqs := func() *sliceTrace {
		var reqs []workload.Request
		for i := 0; i < 200; i++ {
			reqs = append(reqs, workload.Request{Gap: 39, Line: line(dcfg, i%16, 10+i, 0)})
		}
		return &sliceTrace{reqs: reqs}
	}
	smallMem := memsim.New(memsim.DefaultConfig(dcfg))
	small := testutil.Must(New(0, Config{ROB: 160, Width: 4}, mkReqs(), smallMem))
	runSystem(t, []*Core{small}, smallMem)
	big := testutil.Must(New(0, Config{ROB: 16000, Width: 4}, mkReqs(), mem))
	runSystem(t, []*Core{big}, mem)
	if big.FinishTime() >= small.FinishTime() {
		t.Fatalf("bigger ROB not faster: %d vs %d", big.FinishTime(), small.FinishTime())
	}
}

func TestWritesDoNotBlock(t *testing.T) {
	dcfg := dram.Baseline()
	mem := memsim.New(memsim.DefaultConfig(dcfg))
	var reqs []workload.Request
	for i := 0; i < 300; i++ {
		reqs = append(reqs, workload.Request{Gap: 0, Write: true, Line: line(dcfg, 0, 10+(i%2)*10, 0)})
	}
	c := testutil.Must(New(0, DefaultConfig(), &sliceTrace{reqs: reqs}, mem))
	runSystem(t, []*Core{c}, mem)
	// Writes are posted: the ROB never stalls on one, and the core
	// finishes (modulo queue backpressure) while the memory system is
	// still grinding through the write backlog.
	if c.StallFor != 0 {
		t.Fatalf("posted writes stalled the ROB for %d cycles", c.StallFor)
	}
	s := mem.Stats()
	if c.FinishTime() >= s.BusyUntil {
		t.Fatalf("core finish %d not ahead of memory drain %d", c.FinishTime(), s.BusyUntil)
	}
	if s.Writes != 300 {
		t.Fatalf("writes serviced = %d, want 300", s.Writes)
	}
}

func TestBackpressureRetries(t *testing.T) {
	dcfg := dram.Baseline()
	cfg := memsim.DefaultConfig(dcfg)
	cfg.WriteQCap = 4
	cfg.DrainHi = 4
	cfg.DrainLo = 1
	mem := memsim.New(cfg)
	var reqs []workload.Request
	for i := 0; i < 100; i++ {
		reqs = append(reqs, workload.Request{Gap: 0, Write: true, Line: line(dcfg, 0, 10+(i%2)*10, 0)})
	}
	c := testutil.Must(New(0, DefaultConfig(), &sliceTrace{reqs: reqs}, mem))
	runSystem(t, []*Core{c}, mem)
	if c.Retries == 0 {
		t.Fatal("tiny write queue never exerted backpressure")
	}
	if got := mem.Stats().Writes; got != 100 {
		t.Fatalf("writes serviced = %d, want 100", got)
	}
}

func TestBadConfigErrors(t *testing.T) {
	if _, err := New(0, Config{ROB: 0, Width: 4}, &sliceTrace{}, nil); err == nil {
		t.Fatal("zero ROB should error")
	}
	if _, err := New(0, DefaultConfig(), nil, nil); err == nil {
		t.Fatal("nil trace/memory should error")
	}
}

// loopTrace replays a fixed request list forever.
type loopTrace struct {
	reqs []workload.Request
	i    int
}

func (l *loopTrace) Next() (workload.Request, bool) {
	r := l.reqs[l.i%len(l.reqs)]
	l.i++
	return r, true
}

// stubMemory accepts every request and completes reads synchronously,
// a fixed latency after their arrival. It recycles one request, so the
// only allocations a core step can make are its own.
type stubMemory struct{ r memsim.Request }

func (m *stubMemory) NewRequest() *memsim.Request {
	m.r = memsim.Request{}
	return &m.r
}

func (m *stubMemory) Submit(r *memsim.Request) bool {
	if r.OnFinish != nil {
		r.OnFinish(r, r.Arrive+300)
	}
	return true
}

// TestSteadyStateCoreStepIsAllocationFree pins the core's share of the
// allocation-free hot path: once the outstanding-read ring has grown to
// the ROB window, stepping a core allocates nothing.
func TestSteadyStateCoreStepIsAllocationFree(t *testing.T) {
	dcfg := dram.Baseline()
	var reqs []workload.Request
	for i := 0; i < 64; i++ {
		reqs = append(reqs, workload.Request{Gap: i % 3, Write: i%5 == 4, Line: line(dcfg, i%16, 10+i%7, i%128)})
	}
	c := testutil.Must(New(0, DefaultConfig(), &loopTrace{reqs: reqs}, &stubMemory{}))
	steps := func() {
		for i := 0; i < 1000; i++ {
			c.Step()
		}
	}
	steps() // warm the ring
	if avg := testing.AllocsPerRun(20, steps); avg != 0 {
		t.Fatalf("1000 steady-state core steps allocate %.1f times, want 0", avg)
	}
	if c.Reads == 0 || c.StallFor == 0 {
		t.Fatalf("stub run never exercised the ROB window (reads %d, stall %d)", c.Reads, c.StallFor)
	}
}
