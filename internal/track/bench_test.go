package track

import (
	"testing"

	"repro/internal/rh"
	"repro/internal/testutil"
)

// BenchmarkGrapheneActivate measures the Misra-Gries update, the
// operation a CAM performs in one cycle in hardware.
func BenchmarkGrapheneActivate(b *testing.B) {
	g := testutil.Must(NewGraphene(BaselineGeometry(), 500))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Activate(rh.Row(uint32(i*31) % (4 * 1024 * 1024)))
	}
}

// BenchmarkGrapheneThrash measures the replacement-heavy regime an
// attacker induces.
func BenchmarkGrapheneThrash(b *testing.B) {
	geom := BaselineGeometry()
	g := testutil.Must(NewGraphene(geom, 500))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Activate(rh.Row(uint32(i) % uint32(geom.RowsPerBank))) // one bank, wide footprint
	}
}

// BenchmarkCRAActivate measures a counter update through the metadata
// cache.
func BenchmarkCRAActivate(b *testing.B) {
	c := testutil.Must(NewCRA(BaselineGeometry(), 500, 64*1024, rh.NullSink{}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Activate(rh.Row(uint32(i*31) % (4 * 1024 * 1024)))
	}
}

// BenchmarkCRAActivateSparse measures CRA on the shape of a bench
// cell's traffic: 4,096 rows, four in each counter page, so every page
// stays sparse. BenchmarkCRAActivate's stride fills its pages dense.
func BenchmarkCRAActivateSparse(b *testing.B) {
	geom := BaselineGeometry()
	c := testutil.Must(NewCRA(geom, 500, 64*1024, rh.NullSink{}))
	rows := scatteredRows(geom, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Activate(rows[i%len(rows)])
	}
}

// BenchmarkOCPRActivate is the exact-counter lower bound.
func BenchmarkOCPRActivate(b *testing.B) {
	o := testutil.Must(NewOCPR(BaselineGeometry(), 500))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Activate(rh.Row(uint32(i*31) % (4 * 1024 * 1024)))
	}
}
