package memsim

import (
	"testing"

	"repro/internal/dram"
)

// onFreeList reports whether r sits on m's request free list.
func onFreeList(m *Memory, r *Request) bool {
	for _, f := range m.sh.free {
		if f == r {
			return true
		}
	}
	return false
}

// TestServedRequestsRecycleAtServiceOrAfterCallback pins when pooled
// requests return to the free list: one without a callback (demand
// write, metadata read and write, victim refresh) as soon as the
// controller serves it, so it is already free when the barrier replays
// the epoch's first completion; a read with OnFinish only after its
// callback has run. Reads left queued beside them — dated into the
// future, or to one bank the epoch has no time to drain — keep future,
// bucket and aging lists non-empty, and during and after the barrier
// no bucket or arrival list may reach a request on the free list
// (queueListErr).
func TestServedRequestsRecycleAtServiceOrAfterCallback(t *testing.T) {
	mem := dram.Baseline()
	m := New(DefaultConfig(mem))
	queueRead := func(ch int, row int, arrive int64) {
		r := m.NewRequest()
		r.Line, r.Kind, r.Arrive = lineAt(mem, ch, 9, row, 0), ReadReq, arrive
		m.Submit(r)
	}
	for i := 0; i < 6; i++ {
		queueRead(0, 20+i, 0)
		queueRead(0, 30+i, 1<<20)
		queueRead(1, 30+i, 1<<20)
	}
	var plain []*Request
	for i, k := range []Kind{MitigAct, MetaRead, MetaWrite, WriteReq} {
		r := m.NewRequest()
		r.Line, r.Kind = lineAt(mem, 1, i, 10, 0), k
		m.Submit(r)
		plain = append(plain, r)
	}
	read := m.NewRequest()
	read.Line, read.Kind = lineAt(mem, 0, 0, 10, 0), ReadReq
	called := false
	read.OnFinish = func(r *Request, _ int64) {
		called = true
		if onFreeList(m, r) {
			t.Error("read is on the free list during its own callback")
		}
		s := m.Stats()
		if s.MitigActs != 1 || s.MetaReads != 1 || s.MetaWrites != 1 || s.Writes != 1 {
			t.Fatalf("channel 1 did not serve its four requests in the read's epoch: %+v", s)
		}
		for _, p := range plain {
			if !onFreeList(m, p) {
				t.Errorf("served %v request not on the free list when the barrier replays", p.Kind)
			}
		}
		if err := queueListErr(m); err != nil {
			t.Errorf("during the barrier: %v", err)
		}
	}
	m.Submit(read)
	m.RunEpoch(Infinity)
	if !called {
		t.Fatal("the read did not complete in the first epoch")
	}
	if !onFreeList(m, read) {
		t.Fatal("read not on the free list after its callback")
	}
	if err := queueListErr(m); err != nil {
		t.Fatalf("after the barrier: %v", err)
	}
	if q := &m.channels[0].readQ; q.future.n == 0 || q.aging.n == 0 {
		t.Fatalf("channel 0 read queue: future %d, aging %d requests left; want both > 0", q.future.n, q.aging.n)
	}
}

// TestRunEpochHorizonClamp pins RunEpoch's horizon rule,
// max(min(NextTime()+lookahead, limit), NextTime()+1): reads arrive on
// one channel every 50 cycles from cycle 1000, each decided at its
// arrival, so the reads an epoch serves are the arrivals before its
// horizon.
func TestRunEpochHorizonClamp(t *testing.T) {
	mem := dram.Baseline()
	const first = 1000
	la := DDR4().TCAS + DDR4().TBURST + DefaultConfig(mem).StaticLatency
	for _, tc := range []struct {
		name    string
		limit   int64
		horizon int64
		served  int64
	}{
		{"no-limit-takes-lookahead", Infinity, first + la, 3},
		{"limit-past-lookahead", first + la + 1, first + la, 3},
		{"limit-at-lookahead", first + la, first + la, 3},
		{"limit-inside-lookahead", first + 60, first + 60, 2},
		{"limit-at-a-decision", first + 50, first + 50, 1},
		{"limit-at-next-time-progresses", first, first + 1, 1},
		{"limit-before-next-time-progresses", 0, first + 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(DefaultConfig(mem))
			for i := 0; i < 4; i++ {
				m.Submit(&Request{Line: lineAt(mem, 0, i, 10, 0), Kind: ReadReq, Arrive: first + 50*int64(i)})
			}
			if got := m.lookahead(); got != la {
				t.Fatalf("lookahead = %d, want %d", got, la)
			}
			next := m.RunEpoch(tc.limit)
			if got := m.Stats().Reads; got != tc.served {
				t.Fatalf("served %d reads, want %d (horizon %d)", got, tc.served, tc.horizon)
			}
			if next != m.NextTime() || next < tc.horizon {
				t.Fatalf("RunEpoch returned %d (NextTime %d); want NextTime, at or past horizon %d",
					next, m.NextTime(), tc.horizon)
			}
			if e := m.Stats().Epochs; e != 1 {
				t.Fatalf("epochs = %d, want 1", e)
			}
		})
	}
}

// TestRunEpochOnIdleMemory pins that an idle memory runs no epoch.
func TestRunEpochOnIdleMemory(t *testing.T) {
	m := testMem(nil)
	if next := m.RunEpoch(Infinity); next != Infinity {
		t.Fatalf("RunEpoch on idle memory returned %d, want Infinity", next)
	}
	if e := m.Stats().Epochs; e != 0 {
		t.Fatalf("epochs = %d, want 0", e)
	}
}
