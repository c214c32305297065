package memsim

import (
	"testing"

	"repro/internal/dram"
)

// BenchmarkChannelThroughput measures simulator speed servicing a
// bank-parallel read stream: requests simulated per wall-clock second
// bounds how fast the figure sweeps can run. It uses the request pool
// and drains periodically, so after warm-up the step loop runs
// allocation-free.
func BenchmarkChannelThroughput(b *testing.B) {
	mem := dram.Baseline()
	cfg := DefaultConfig(mem)
	cfg.ReadQCap = 1 << 20
	m := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := m.NewRequest()
		r.Line = mem.Encode(dram.Loc{Channel: i % 2, Bank: i % 16, Row: (i / 32) % 1000, Col: i % 128})
		r.Kind = ReadReq
		m.Submit(r)
		if i%1024 == 1023 {
			drain(m)
		}
	}
	drain(m)
}

// BenchmarkEpochBarrierSerial drives the epoch engine over a 4-channel
// bank-parallel read stream at the widest exact horizon and reports the
// amortized cost of one epoch (stepping four channels in decision
// order plus the barrier's replay) next to the usual ns/op.
func BenchmarkEpochBarrierSerial(b *testing.B) {
	mem := dram.Baseline()
	mem.Channels = 4
	cfg := DefaultConfig(mem)
	cfg.ReadQCap = 1 << 20
	m := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := m.NewRequest()
		r.Line = mem.Encode(dram.Loc{Channel: i % 4, Bank: i % 16, Row: (i / 64) % 1000, Col: i % 128})
		r.Kind = ReadReq
		m.Submit(r)
		if i%1024 == 1023 {
			drain(m)
		}
	}
	drain(m)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.epochs), "ns/epoch")
}

// BenchmarkRowHitStream measures the fast path: all row-buffer hits.
func BenchmarkRowHitStream(b *testing.B) {
	mem := dram.Baseline()
	cfg := DefaultConfig(mem)
	cfg.ReadQCap = 1 << 20
	m := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := m.NewRequest()
		r.Line = mem.Encode(dram.Loc{Bank: 0, Row: 10, Col: i % 128})
		r.Kind = ReadReq
		m.Submit(r)
		if i%1024 == 1023 {
			drain(m)
		}
	}
	drain(m)
}
