package sim

import (
	"testing"

	"repro/internal/workload"
)

// benchConfig is a small but representative full-system cell: 4 cores,
// Hydra tracking at T_RH 500, a short tracking window so the reset
// path runs, and a footprint scale that keeps one run around a few
// hundred thousand scheduling decisions.
func benchConfig(p string) Config {
	prof, err := workload.ByName(p)
	if err != nil {
		panic(err)
	}
	cfg := Default(prof)
	cfg.Scale = 512
	cfg.Cores = 4
	cfg.WindowCycles = 400_000
	return cfg
}

// BenchmarkFullSystemHydra measures end-to-end simulation speed on a
// memory-intensive workload with Hydra tracking: the wall-clock cost
// of one campaign cell, dominated by the memsim scheduling hot path.
func BenchmarkFullSystemHydra(b *testing.B) {
	cfg := benchConfig("parest")
	b.ReportAllocs()
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		insts = res.Insts
	}
	if insts == 0 {
		b.Fatal("benchmark simulated no instructions")
	}
}

// BenchmarkFullSystemBaseline measures the same cell without tracking
// (the non-secure baseline): pure cores + memory controller.
func BenchmarkFullSystemBaseline(b *testing.B) {
	cfg := benchConfig("parest")
	cfg.Tracker = TrackNone
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSystemHydra4ch is the same cell as
// BenchmarkFullSystemHydra on four channels: each epoch barrier merges
// twice as many channel event buffers as on the 2-channel default.
func BenchmarkFullSystemHydra4ch(b *testing.B) {
	cfg := benchConfig("parest")
	cfg.Mem.Channels = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
