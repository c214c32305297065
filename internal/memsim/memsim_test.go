package memsim

import (
	"testing"

	"repro/internal/dram"
)

func testMem(hook func(uint32, Kind, int64)) *Memory {
	cfg := DefaultConfig(dram.Baseline())
	cfg.OnACT = hook
	return New(cfg)
}

// drain runs m until idle in epochs of the widest exact horizon.
func drain(m *Memory) {
	for t := m.NextTime(); t < Infinity; t = m.RunEpoch(Infinity) {
	}
}

func lineAt(mem dram.Config, ch, bank, row, col int) uint64 {
	return mem.Encode(dram.Loc{Channel: ch, Bank: bank, Row: row, Col: col})
}

func TestColdReadLatency(t *testing.T) {
	m := testMem(nil)
	mem := dram.Baseline()
	var finish int64
	m.Submit(&Request{
		Line:     lineAt(mem, 0, 0, 100, 0),
		Kind:     ReadReq,
		Arrive:   0,
		OnFinish: func(_ *Request, f int64) { finish = f },
	})
	drain(m)
	// Closed bank: ACT(0) + tRCD(45) + tCAS(45) + tBURST(8) + static(60).
	want := int64(45 + 45 + 8 + 60)
	if finish != want {
		t.Fatalf("cold read finish = %d, want %d", finish, want)
	}
	s := m.Stats()
	if s.Reads != 1 || s.Activates != 1 || s.RowHits != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	mem := dram.Baseline()

	run := func(row2 int) int64 {
		m := testMem(nil)
		var f1, f2 int64
		m.Submit(&Request{Line: lineAt(mem, 0, 0, 100, 0), Kind: ReadReq, Arrive: 0,
			OnFinish: func(_ *Request, f int64) { f1 = f }})
		m.Submit(&Request{Line: lineAt(mem, 0, 0, row2, 1), Kind: ReadReq, Arrive: 0,
			OnFinish: func(_ *Request, f int64) { f2 = f }})
		drain(m)
		if f2 <= f1 {
			t.Fatalf("second request finished first: %d <= %d", f2, f1)
		}
		return f2
	}
	hit := run(100)      // same row: buffer hit
	conflict := run(200) // different row: PRE + ACT
	if hit >= conflict {
		t.Fatalf("row hit (%d) not faster than conflict (%d)", hit, conflict)
	}
	// The conflict pays at least tRC spacing between activations.
	if conflict-hit < 100 {
		t.Fatalf("conflict penalty only %d cycles", conflict-hit)
	}
}

func TestSameBankActivationsRespectTRC(t *testing.T) {
	mem := dram.Baseline()
	var acts []int64
	m := testMem(func(_ uint32, _ Kind, at int64) { acts = append(acts, at) })
	// Alternate two rows of one bank, spaced closely enough that tRC
	// binds but far enough apart that FR-FCFS cannot reorder them into
	// row hits.
	for i := 0; i < 6; i++ {
		m.Submit(&Request{Line: lineAt(mem, 0, 3, 100+(i%2)*50, 0), Kind: ReadReq, Arrive: int64(i) * 100})
	}
	drain(m)
	if len(acts) != 6 {
		t.Fatalf("activations = %d, want 6", len(acts))
	}
	for i := 1; i < len(acts); i++ {
		if acts[i]-acts[i-1] < DDR4().TRC {
			t.Fatalf("ACT spacing %d < tRC", acts[i]-acts[i-1])
		}
	}
}

func TestTFAWLimitsActivationBursts(t *testing.T) {
	mem := dram.Baseline()
	var acts []int64
	m := testMem(func(_ uint32, _ Kind, at int64) { acts = append(acts, at) })
	// Five different banks, same rank, all conflicts (cold banks).
	for b := 0; b < 5; b++ {
		m.Submit(&Request{Line: lineAt(mem, 0, b, 10, 0), Kind: ReadReq, Arrive: 0})
	}
	drain(m)
	if len(acts) != 5 {
		t.Fatalf("activations = %d, want 5", len(acts))
	}
	if got := acts[4] - acts[0]; got < DDR4().TFAW {
		t.Fatalf("fifth ACT only %d cycles after first, want >= tFAW (%d)", got, DDR4().TFAW)
	}
}

func TestBandwidthBoundedByBurst(t *testing.T) {
	mem := dram.Baseline()
	cfg := DefaultConfig(mem)
	cfg.ReadQCap = 512
	m := New(cfg)
	var last int64
	n := 256
	for i := 0; i < n; i++ {
		// Spread over banks, same channel, row hits after first touch.
		bank := i % 16
		m.Submit(&Request{Line: lineAt(mem, 0, bank, 10, i/16), Kind: ReadReq, Arrive: 0,
			OnFinish: func(_ *Request, f int64) {
				if f > last {
					last = f
				}
			}})
	}
	drain(m)
	// The data bus serializes at tBURST per transfer: n transfers take
	// at least n*tBURST cycles.
	if minSpan := int64(n) * DDR4().TBURST; last < minSpan {
		t.Fatalf("%d reads completed in %d cycles, faster than the bus allows (%d)", n, last, minSpan)
	}
	if s := m.Stats(); s.RowHits == 0 {
		t.Fatal("expected row-buffer hits in streaming pattern")
	}
}

func TestChannelsAreParallel(t *testing.T) {
	mem := dram.Baseline()
	span := func(chs []int) int64 {
		cfg := DefaultConfig(mem)
		cfg.ReadQCap = 512
		m := New(cfg)
		var last int64
		for i := 0; i < 128; i++ {
			ch := chs[i%len(chs)]
			m.Submit(&Request{Line: lineAt(mem, ch, i%16, 10, i), Kind: ReadReq, Arrive: 0,
				OnFinish: func(_ *Request, f int64) {
					if f > last {
						last = f
					}
				}})
		}
		drain(m)
		return last
	}
	one := span([]int{0})
	two := span([]int{0, 1})
	if float64(two) > 0.75*float64(one) {
		t.Fatalf("two channels (%d) not faster than one (%d)", two, one)
	}
}

func TestRefreshesHappen(t *testing.T) {
	mem := dram.Baseline()
	m := testMem(nil)
	// Two requests far apart in time force the clock across several
	// tREFI boundaries.
	m.Submit(&Request{Line: lineAt(mem, 0, 0, 1, 0), Kind: ReadReq, Arrive: 0})
	m.Submit(&Request{Line: lineAt(mem, 0, 0, 1, 1), Kind: ReadReq, Arrive: 5 * DDR4().TREFI})
	drain(m)
	if s := m.Stats(); s.Refreshes < 4 {
		t.Fatalf("refreshes = %d, want >= 4 over 5 tREFI", s.Refreshes)
	}
}

func TestWriteDrainHysteresis(t *testing.T) {
	mem := dram.Baseline()
	cfg := DefaultConfig(mem)
	cfg.DrainHi = 8
	cfg.DrainLo = 2
	m := New(cfg)
	// Fill writes beyond the drain threshold along with a read stream;
	// everything must eventually complete.
	for i := 0; i < 12; i++ {
		m.Submit(&Request{Line: lineAt(mem, 0, i%16, 20, i), Kind: WriteReq, Arrive: 0})
	}
	var readDone int64
	m.Submit(&Request{Line: lineAt(mem, 0, 0, 30, 0), Kind: ReadReq, Arrive: 0,
		OnFinish: func(_ *Request, f int64) { readDone = f }})
	drain(m)
	s := m.Stats()
	if s.Writes != 12 || s.Reads != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if readDone == 0 {
		t.Fatal("read never completed")
	}
}

func TestReadsPrioritizedOverWrites(t *testing.T) {
	mem := dram.Baseline()
	m := testMem(nil)
	var readDone, writeDone int64
	// One write and one read to the same bank, write submitted first.
	m.Submit(&Request{Line: lineAt(mem, 0, 0, 20, 0), Kind: WriteReq, Arrive: 0,
		OnFinish: func(_ *Request, f int64) { writeDone = f }})
	m.Submit(&Request{Line: lineAt(mem, 0, 0, 30, 0), Kind: ReadReq, Arrive: 0,
		OnFinish: func(_ *Request, f int64) { readDone = f }})
	drain(m)
	if readDone >= writeDone {
		t.Fatalf("read (%d) not prioritized over write (%d)", readDone, writeDone)
	}
}

func TestMitigationActivationsBankOnly(t *testing.T) {
	mem := dram.Baseline()
	var kinds []Kind
	m := testMem(func(_ uint32, k Kind, _ int64) { kinds = append(kinds, k) })
	m.Submit(&Request{Line: lineAt(mem, 0, 0, 99, 0), Kind: MitigAct, Arrive: 0})
	m.Submit(&Request{Line: lineAt(mem, 0, 0, 99, 0), Kind: ReadReq, Arrive: 0})
	drain(m)
	s := m.Stats()
	if s.MitigActs != 1 {
		t.Fatalf("MitigActs = %d", s.MitigActs)
	}
	// The read re-activates the row because mitigation precharges.
	if s.Activates != 2 {
		t.Fatalf("Activates = %d, want 2", s.Activates)
	}
	if len(kinds) != 2 || kinds[0] != MitigAct || kinds[1] != ReadReq {
		t.Fatalf("hook kinds = %v", kinds)
	}
}

func TestHookReceivesGlobalRow(t *testing.T) {
	mem := dram.Baseline()
	var got uint32
	m := testMem(func(row uint32, _ Kind, _ int64) { got = row })
	loc := dram.Loc{Channel: 1, Bank: 5, Row: 777, Col: 3}
	m.Submit(&Request{Line: mem.Encode(loc), Kind: ReadReq, Arrive: 0})
	drain(m)
	if want := mem.GlobalRow(loc); got != want {
		t.Fatalf("hook row = %d, want %d", got, want)
	}
}

func TestSubmitBackpressure(t *testing.T) {
	mem := dram.Baseline()
	cfg := DefaultConfig(mem)
	cfg.ReadQCap = 4
	m := New(cfg)
	accepted := 0
	for i := 0; i < 10; i++ {
		if m.Submit(&Request{Line: lineAt(mem, 0, 0, 1, i), Kind: ReadReq, Arrive: 0}) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted = %d, want 4", accepted)
	}
	drain(m)
	if !m.Idle() {
		t.Fatal("memory not idle after drain")
	}
}

func TestMetaTrafficServiced(t *testing.T) {
	mem := dram.Baseline()
	m := testMem(nil)
	m.Submit(&Request{Line: lineAt(mem, 0, 2, 50, 0), Kind: MetaRead, Arrive: 0})
	m.Submit(&Request{Line: lineAt(mem, 0, 2, 50, 1), Kind: MetaWrite, Arrive: 0})
	drain(m)
	s := m.Stats()
	if s.MetaReads != 1 || s.MetaWrites != 1 {
		t.Fatalf("meta stats = %+v", s)
	}
}

func TestKindString(t *testing.T) {
	for k := MitigAct; k <= WriteReq; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind has empty name")
	}
}

func TestBadConfigPanics(t *testing.T) {
	cfg := DefaultConfig(dram.Baseline())
	cfg.DrainLo = cfg.DrainHi
	defer func() {
		if recover() == nil {
			t.Fatal("bad drain config should panic")
		}
	}()
	New(cfg)
}

// TestStarvationGuard verifies FR-FCFS cannot starve an old conflict
// request behind an endless row-hit stream.
func TestStarvationGuard(t *testing.T) {
	mem := dram.Baseline()
	cfg := DefaultConfig(mem)
	cfg.ReadQCap = 4096
	m := New(cfg)
	var victimDone int64
	// One conflict request to row 99...
	m.Submit(&Request{Line: lineAt(mem, 0, 0, 99, 0), Kind: ReadReq, Arrive: 0,
		OnFinish: func(_ *Request, f int64) { victimDone = f }})
	// ...buried under thousands of row hits to row 10 arriving over time.
	for i := 1; i < 3000; i++ {
		m.Submit(&Request{Line: lineAt(mem, 0, 0, 10, i%128), Kind: ReadReq, Arrive: int64(i)})
	}
	drain(m)
	if victimDone == 0 {
		t.Fatal("victim request never completed")
	}
	// starvationAge bounds the wait: the victim cannot finish after
	// the whole hit stream (which spans > 20000 cycles).
	if victimDone > starvationAge+2000 {
		t.Fatalf("victim starved until %d", victimDone)
	}
}

// TestMetaPressurePrioritizesBacklog verifies that a deep metadata
// backlog (a saturated tracker) preempts demand reads, bounding the
// backlog like a real tracker's miss buffer.
func TestMetaPressurePrioritizesBacklog(t *testing.T) {
	mem := dram.Baseline()
	cfg := DefaultConfig(mem)
	cfg.ReadQCap = 4096
	m := New(cfg)
	ch := m.channels[0]
	// Enqueue a deep meta backlog and a stream of demand reads.
	for i := 0; i < metaPressure+20; i++ {
		m.Submit(&Request{Line: lineAt(mem, 0, 1, 7, i%128), Kind: MetaRead, Arrive: 0})
	}
	for i := 0; i < 200; i++ {
		m.Submit(&Request{Line: lineAt(mem, 0, 0, 10, i%128), Kind: ReadReq, Arrive: 0})
	}
	// Step one cycle's decisions at a time until the backlog falls to
	// the pressure bound; reads must not all have gone first.
	for steps := 0; ch.metaQ.len() > metaPressure && steps < 10000; steps++ {
		if m.NextTime() == Infinity {
			break
		}
		m.RunEpoch(m.NextTime() + 1)
	}
	if ch.metaQ.len() > metaPressure {
		t.Fatalf("meta backlog stuck at %d", ch.metaQ.len())
	}
	if got := m.Stats().Reads; got == 200 {
		t.Fatal("all demand reads finished before the meta backlog drained")
	}
	drain(m)
	s := m.Stats()
	if s.MetaReads != int64(metaPressure+20) || s.Reads != 200 {
		t.Fatalf("final stats %+v", s)
	}
}

// TestRefreshPeriodCount pins the refresh cadence: a run spanning N
// tREFI windows issues ~N refreshes per rank.
func TestRefreshPeriodCount(t *testing.T) {
	mem := dram.Baseline()
	m := testMem(nil)
	span := 20 * DDR4().TREFI
	m.Submit(&Request{Line: lineAt(mem, 0, 0, 1, 0), Kind: ReadReq, Arrive: 0})
	m.Submit(&Request{Line: lineAt(mem, 0, 0, 1, 1), Kind: ReadReq, Arrive: span})
	drain(m)
	got := m.Stats().Refreshes
	if got < 18 || got > 21 {
		t.Fatalf("refreshes = %d over 20 tREFI", got)
	}
}

// TestDrainedMemoryIsIdle pins the Idle/NextTime contract.
func TestDrainedMemoryIsIdle(t *testing.T) {
	mem := dram.Baseline()
	m := testMem(nil)
	if !m.Idle() || m.NextTime() != Infinity {
		t.Fatal("fresh memory not idle")
	}
	m.Submit(&Request{Line: lineAt(mem, 0, 0, 1, 0), Kind: WriteReq, Arrive: 100})
	if m.Idle() {
		t.Fatal("queued memory reported idle")
	}
	if m.NextTime() != 100 {
		t.Fatalf("NextTime = %d, want 100 (arrival)", m.NextTime())
	}
	drain(m)
	if !m.Idle() {
		t.Fatal("drained memory not idle")
	}
}

// TestGeometryBeyondRequestFieldsPanics pins that New refuses a
// geometry whose channel, bank index or row would not fit the
// Request's narrow address fields, rather than truncate them.
func TestGeometryBeyondRequestFieldsPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*dram.Config)
	}{
		{"channels", func(g *dram.Config) { g.Channels = 1 << 17 }},
		{"banks", func(g *dram.Config) { g.BanksPerRank = 1 << 17 }},
		{"rows", func(g *dram.Config) { g.RowsPerBank = 1 << 32 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := dram.Baseline()
			tc.mod(&mem)
			defer func() {
				if recover() == nil {
					t.Fatalf("New accepted %+v", mem)
				}
			}()
			New(DefaultConfig(mem))
		})
	}
}
