package obsv

import (
	"math"
	"testing"
)

func TestQuantileEmptyAndNil(t *testing.T) {
	var nilHist *Hist
	if got := nilHist.Quantile(0.5); got != 0 {
		t.Errorf("nil hist quantile = %v, want 0", got)
	}
	h := NewHist(10, 20)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty hist quantile = %v, want 0", got)
	}
	var zero Hist // malformed: no counts slice
	if got := zero.Quantile(0.5); got != 0 {
		t.Errorf("zero-value hist quantile = %v, want 0", got)
	}
}

func TestQuantileUniformInterpolation(t *testing.T) {
	// 1..20 uniformly: 10 samples in (0,10], 10 in (10,20].
	h := NewHist(10, 20)
	for v := int64(1); v <= 20; v++ {
		h.Observe(v)
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 0},     // rank 0 → lower edge of the first bucket
		{0.25, 5},  // rank 5 of 10 within (0,10]
		{0.5, 10},  // exactly exhausts the first bucket
		{0.75, 15}, // halfway through (10,20]
		{1, 20},    // the maximum
		{-0.5, 0},  // clamped to p=0
		{1.5, 20},  // clamped to p=1
	}
	for _, c := range cases {
		if got := h.Quantile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestQuantileOverflowBucketUsesMax(t *testing.T) {
	h := NewHist(10)
	h.Observe(5)
	h.Observe(1000) // lands in the overflow bucket; Max = 1000
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("Quantile(1) = %v, want the observed max 1000", got)
	}
	// The overflow bucket interpolates between the last bound and Max,
	// so no estimate can exceed a real sample.
	if got := h.Quantile(0.75); got < 10 || got > 1000 {
		t.Errorf("Quantile(0.75) = %v, want within (10, 1000]", got)
	}
}

func TestQuantileMonotonicInP(t *testing.T) {
	h := NewHist(PowersOfTwo(1024)...)
	for v := int64(0); v < 500; v++ {
		h.Observe(v * 3 % 700)
	}
	prev := -1.0
	for p := 0.0; p <= 1.0; p += 0.05 {
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("Quantile not monotonic: p=%v gave %v after %v", p, q, prev)
		}
		prev = q
	}
	if top := h.Quantile(1); top > float64(h.Max) {
		t.Errorf("Quantile(1) = %v exceeds Max %d", top, h.Max)
	}
}

func TestQuantileSingleSample(t *testing.T) {
	h := NewHist(10, 100)
	h.Observe(42)
	for _, p := range []float64{0.5, 0.99, 1} {
		got := h.Quantile(p)
		if got < 10 || got > 100 {
			t.Errorf("Quantile(%v) = %v, want within the sample's bucket (10,100]", p, got)
		}
	}
}

// TestObserveBucketsLikeLinearScan pins Observe's PowersOfTwo fast
// path: every sample lands in the first bucket whose bound holds it,
// for the power-of-two layout and for layouts the fast path misses.
func TestObserveBucketsLikeLinearScan(t *testing.T) {
	layouts := [][]int64{PowersOfTwo(64), PowersOfTwo(1), {0, 3, 10, 100}, {1, 2, 4, 8}, {5}}
	for _, bounds := range layouts {
		for v := int64(-3); v <= 300; v++ {
			h := NewHist(bounds...)
			h.Observe(v)
			want := len(bounds)
			for i, b := range bounds {
				if v <= b {
					want = i
					break
				}
			}
			if h.Counts[want] != 1 {
				t.Fatalf("bounds %v: sample %d counted in %v, want bucket %d", bounds, v, h.Counts, want)
			}
		}
	}
}
