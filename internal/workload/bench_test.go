package workload

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/testutil"
)

// BenchmarkStreamNext measures trace-generation speed, which bounds
// how cheaply the harness can feed eight cores.
func BenchmarkStreamNext(b *testing.B) {
	p, err := ByName("parest")
	if err != nil {
		b.Fatal(err)
	}
	mem := dram.Baseline()
	cfg := DefaultStreamConfig(mem, mem.RowsPerBank-17)
	cfg.ActBudget = 1 << 30
	s := testutil.Must(NewStream(p, cfg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			b.Fatal("stream exhausted")
		}
	}
}

// TestStreamNextSteadyStateAllocFree pins the pending-queue fix: the
// drained queue resets to its backing array instead of re-slicing past
// consumed elements, so after warm-up (which sizes pending, the hot
// block and the cold window once) Next never allocates again.
func TestStreamNextSteadyStateAllocFree(t *testing.T) {
	p, err := ByName("parest")
	if err != nil {
		t.Fatal(err)
	}
	mem := dram.Baseline()
	cfg := DefaultStreamConfig(mem, mem.RowsPerBank-17)
	cfg.ActBudget = 1 << 30
	s := testutil.Must(NewStream(p, cfg))
	for i := 0; i < 10_000; i++ { // warm up: internal buffers reach steady state
		if _, ok := s.Next(); !ok {
			t.Fatal("stream exhausted during warm-up")
		}
	}
	avg := testing.AllocsPerRun(10_000, func() {
		if _, ok := s.Next(); !ok {
			t.Fatal("stream exhausted")
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Stream.Next allocates %.4f allocs/op, want 0", avg)
	}
}

// BenchmarkGUPSStream measures the random-access generator.
func BenchmarkGUPSStream(b *testing.B) {
	p, err := ByName("GUPS")
	if err != nil {
		b.Fatal(err)
	}
	mem := dram.Baseline()
	cfg := DefaultStreamConfig(mem, mem.RowsPerBank-17)
	cfg.ActBudget = 1 << 30
	s := testutil.Must(NewStream(p, cfg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			b.Fatal("stream exhausted")
		}
	}
}
