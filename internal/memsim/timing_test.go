package memsim

import (
	"testing"

	"repro/internal/dram"
)

// TestWriteRecoveryDelaysActivate pins the tWR gap: after a write, the
// bank cannot precharge (and so cannot activate a new row) until tWR
// past the end of the write burst, then tRP.
func TestWriteRecoveryDelaysActivate(t *testing.T) {
	mem := dram.Baseline()
	var writeEnd, readAct int64
	cfg := DefaultConfig(mem)
	cfg.OnACT = func(_ uint32, k Kind, at int64) {
		if k == ReadReq {
			readAct = at
		}
	}
	m := New(cfg)
	// The write goes first (empty read queue), the conflicting read
	// arrives while the write burst is in flight.
	m.Submit(&Request{Line: lineAt(mem, 0, 0, 100, 0), Kind: WriteReq, Arrive: 0,
		OnFinish: func(_ *Request, f int64) { writeEnd = f }})
	m.Submit(&Request{Line: lineAt(mem, 0, 0, 200, 0), Kind: ReadReq, Arrive: 1})
	drain(m)
	if writeEnd == 0 || readAct == 0 {
		t.Fatalf("writeEnd = %d, readAct = %d", writeEnd, readAct)
	}
	tm := DDR4()
	// The write finishes when its burst leaves the bus; the row-miss
	// read then pays exactly write recovery plus precharge.
	if want := writeEnd + tm.TWR + tm.TRP; readAct != want {
		t.Fatalf("read ACT at %d, want writeEnd(%d) + tWR(%d) + tRP(%d) = %d",
			readAct, writeEnd, tm.TWR, tm.TRP, want)
	}
}

// TestWriteToReadTurnaround pins tWTR: a read CAS trails the last
// write burst by tWTR_L on the same bank and by the shorter tWTR_S on
// a different bank.
func TestWriteToReadTurnaround(t *testing.T) {
	mem := dram.Baseline()
	tm := DDR4()

	// run services a write to bank 0, then a read to the given bank,
	// and returns the read's finish relative to the write burst end.
	run := func(bank, row int) int64 {
		m := testMem(nil)
		var writeEnd, readEnd int64
		m.Submit(&Request{Line: lineAt(mem, 0, 0, 100, 0), Kind: WriteReq, Arrive: 0,
			OnFinish: func(_ *Request, f int64) { writeEnd = f }})
		m.Submit(&Request{Line: lineAt(mem, 0, bank, row, 1), Kind: ReadReq, Arrive: 1,
			OnFinish: func(_ *Request, f int64) { readEnd = f }})
		drain(m)
		if writeEnd == 0 || readEnd == 0 {
			t.Fatalf("writeEnd = %d, readEnd = %d", writeEnd, readEnd)
		}
		return readEnd - writeEnd
	}

	cfg := DefaultConfig(mem)
	// Same bank, same row: a row hit whose CAS is gated only by tWTR_L.
	sameBank := run(0, 100)
	if want := tm.TWTR + tm.TCAS + tm.TBURST + cfg.StaticLatency; sameBank != want {
		t.Fatalf("same-bank read trailed write by %d, want tWTR_L-bound %d", sameBank, want)
	}
	// Different bank: the activate overlaps the write burst, so the CAS
	// is gated by the short cross-bank turnaround tWTR_S.
	crossBank := run(1, 100)
	if want := tm.TWTRS + tm.TCAS + tm.TBURST + cfg.StaticLatency; crossBank != want {
		t.Fatalf("cross-bank read trailed write by %d, want tWTR_S-bound %d", crossBank, want)
	}
	if crossBank >= sameBank {
		t.Fatalf("cross-bank turnaround (%d) not shorter than same-bank (%d)", crossBank, sameBank)
	}
}

// TestStarvingPickUsesSubmissionOrder is the regression test for the
// starvation defect: among starving requests the scheduler must serve
// the oldest submission (lowest seq), not whichever the queue order or
// arrival times happen to surface.
func TestStarvingPickUsesSubmissionOrder(t *testing.T) {
	var q reqQueue
	q.init(1, true)
	// r1 was submitted first (lower seq) but arrived later than r2.
	r1 := &Request{seq: 5, Arrive: 10}
	r2 := &Request{seq: 7, Arrive: 0}
	q.insertReady(r2, -1)
	q.insertReady(r1, -1)
	now := int64(10 + starvationAge + 1) // both past the age bound
	if got := q.starvingPick(now); got != r1 {
		t.Fatalf("starving pick = %+v, want the oldest submission r1", got)
	}
	q.remove(r1)
	if got := q.starvingPick(now); got != r2 {
		t.Fatalf("after serving r1, starving pick = %+v, want r2", got)
	}
	q.remove(r2)
	if got := q.starvingPick(now); got != nil {
		t.Fatalf("empty queue starving pick = %+v", got)
	}
}

// TestStarvationOrderSurvivesReordering drives the same property
// end-to-end: two buried conflict victims are rescued in submission
// order even with served requests punched out of the queue between
// them.
func TestStarvationOrderSurvivesReordering(t *testing.T) {
	mem := dram.Baseline()
	cfg := DefaultConfig(mem)
	cfg.ReadQCap = 8192
	m := New(cfg)
	var order []int
	victim := func(id, row int) {
		m.Submit(&Request{Line: lineAt(mem, 0, 0, row, 0), Kind: ReadReq, Arrive: 0,
			OnFinish: func(_ *Request, _ int64) { order = append(order, id) }})
	}
	victim(1, 99)
	// Early row hits between the two victims: they are served first and
	// leave holes in the queue ahead of victim 2.
	for i := 0; i < 64; i++ {
		m.Submit(&Request{Line: lineAt(mem, 0, 0, 10, i%128), Kind: ReadReq, Arrive: 0})
	}
	victim(2, 98)
	// A long row-hit stream that would starve both victims forever
	// without the age bound.
	for i := 1; i < 3000; i++ {
		m.Submit(&Request{Line: lineAt(mem, 0, 0, 10, i%128), Kind: ReadReq, Arrive: int64(i)})
	}
	drain(m)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("victim completion order = %v, want [1 2]", order)
	}
}

// TestRefreshStaggerClamped verifies the per-rank refresh stagger is
// clamped modulo tREFI: whatever the channel and rank counts, every
// rank's first refresh lands within (tREFI, 2*tREFI].
func TestRefreshStaggerClamped(t *testing.T) {
	mem := dram.Baseline()
	mem.Channels = 64
	mem.RanksPerChannel = 4
	cfg := DefaultConfig(mem)
	m := New(cfg)
	trefi := cfg.Timing.TREFI
	for ci, ch := range m.channels {
		for r, at := range ch.nextRef {
			if at < trefi || at >= 2*trefi {
				t.Fatalf("channel %d rank %d first refresh at %d, want within [tREFI, 2*tREFI) = [%d, %d)",
					ci, r, at, trefi, 2*trefi)
			}
		}
	}
}

// TestSteadyStateStepIsAllocationFree pins the pooled hot path: once
// the queues and free list are warm, submitting and fully servicing
// pooled requests does not allocate. The warm-up round walks every
// queue list after each epoch (queueListErr).
func TestSteadyStateStepIsAllocationFree(t *testing.T) {
	mem := dram.Baseline()
	cfg := DefaultConfig(mem)
	cfg.ReadQCap = 4096
	m := New(cfg)
	submit := func() {
		for i := 0; i < 256; i++ {
			r := m.NewRequest()
			switch i % 8 {
			case 6:
				r.Kind = WriteReq
			case 7:
				r.Kind = MetaRead
			default:
				r.Kind = ReadReq
			}
			r.Line = lineAt(mem, i%2, i%16, (i/64)%32, i%128)
			m.Submit(r)
		}
	}
	round := func() {
		submit()
		drain(m)
	}
	// Warm up the free list; the queues thread through the requests
	// and have nothing to grow.
	submit()
	check := listCheck(t, m)
	for now := m.NextTime(); now < Infinity; {
		now = m.RunEpoch(Infinity)
		check()
	}
	if avg := testing.AllocsPerRun(10, round); avg != 0 {
		t.Fatalf("steady-state step loop allocates %.1f times per round, want 0", avg)
	}
}
