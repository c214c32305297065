package track

import (
	"testing"

	"repro/internal/rh"
)

// BenchmarkGrapheneActivate measures the Misra-Gries update, the
// operation a CAM performs in one cycle in hardware.
func BenchmarkGrapheneActivate(b *testing.B) {
	g := MustNewGraphene(BaselineGeometry(), 500)
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
	g := MustNewGraphene(geom, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Activate(rh.Row(uint32(i) % uint32(geom.RowsPerBank))) // one bank, wide footprint
	}
}

// BenchmarkCRAActivate measures a counter update through the metadata
// cache.
func BenchmarkCRAActivate(b *testing.B) {
	c := MustNewCRA(BaselineGeometry(), 500, 64*1024, rh.NullSink{})
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
	c := MustNewCRA(geom, 500, 64*1024, rh.NullSink{})
	rows := scatteredRows(geom, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Activate(rows[i%len(rows)])
	}
}

// BenchmarkOCPRActivate is the exact-counter lower bound.
func BenchmarkOCPRActivate(b *testing.B) {
	o := MustNewOCPR(BaselineGeometry(), 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Activate(rh.Row(uint32(i*31) % (4 * 1024 * 1024)))
	}
}

// BenchmarkDCBFActivate measures the triple-hash dual-filter update.
func BenchmarkDCBFActivate(b *testing.B) {
	d := MustNewDCBF(BaselineGeometry(), 500, 0, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Activate(rh.Row(uint32(i*31) % (4 * 1024 * 1024)))
	}
}
