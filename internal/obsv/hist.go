package obsv

import (
	"fmt"
	"math/bits"
)

// Hist is a fixed-bucket histogram over non-negative int64 samples,
// cheap enough to sit on a simulator scheduling path: Observe is a
// handful of compares and three adds, in constant time for the
// PowersOfTwo layout. It is a value type with a stable JSON shape, so
// memory-controller stats can embed it directly and run reports can
// carry it.
//
// Bounds are inclusive upper bounds; a final overflow bucket catches
// samples above the last bound, so len(Counts) == len(Bounds)+1.
// Construct with NewHist; the zero value cannot record samples.
type Hist struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	N      int64   `json:"n"`
	Sum    int64   `json:"sum"`
	Max    int64   `json:"max"`
}

// NewHist creates a histogram with the given strictly increasing
// inclusive upper bounds.
func NewHist(bounds ...int64) Hist {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obsv: histogram bounds must be strictly increasing")
		}
	}
	return Hist{
		Bounds: append([]int64(nil), bounds...),
		Counts: make([]int64, len(bounds)+1),
	}
}

// PowersOfTwo returns bounds 0, 1, 2, 4, ... up to max inclusive, the
// conventional shape for queue depths and occupancies.
func PowersOfTwo(max int64) []int64 {
	bounds := []int64{0}
	for b := int64(1); b <= max; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// Observe records one sample.
func (h *Hist) Observe(v int64) {
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	// In the PowersOfTwo layout v lands in bucket bits.Len64(v-1)+1.
	// Taking that bucket whenever it brackets v is exact for any
	// layout; otherwise fall back to the scan.
	if i := bits.Len64(uint64(v-1)) + 1; i < len(h.Bounds) && v <= h.Bounds[i] && v > h.Bounds[i-1] {
		h.Counts[i]++
		return
	}
	for i, b := range h.Bounds {
		if v <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Bounds)]++
}

// Mean returns the mean of all recorded samples (0 when empty).
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Quantile estimates the p-quantile (0 <= p <= 1) of the recorded
// samples by linear interpolation within the bucket holding the target
// rank, the standard estimator for fixed-bucket histograms (what
// Prometheus' histogram_quantile computes server-side). Bucket i spans
// (Bounds[i-1], Bounds[i]]; the overflow bucket is interpolated up to
// the observed Max, so the estimate never exceeds a real sample.
// Returns 0 when the histogram is empty; p outside [0,1] is clamped.
func (h *Hist) Quantile(p float64) float64 {
	if h == nil || h.N == 0 || len(h.Counts) != len(h.Bounds)+1 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(h.N)
	cum := int64(0)
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) < rank {
			cum += n
			continue
		}
		// The target rank lands in this bucket: interpolate between its
		// exclusive lower bound and inclusive upper bound.
		lo := float64(0)
		if i > 0 {
			lo = float64(h.Bounds[i-1])
		}
		// Interpolate up to the bucket bound, but never past the observed
		// Max: the topmost occupied bucket usually ends well below its
		// bound, and an estimate above every real sample is a lie.
		hi := float64(h.Max)
		if i < len(h.Bounds) && float64(h.Bounds[i]) < hi {
			hi = float64(h.Bounds[i])
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - float64(cum)) / float64(n)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	return float64(h.Max)
}

// Clone returns a deep copy.
func (h Hist) Clone() Hist {
	h.Bounds = append([]int64(nil), h.Bounds...)
	h.Counts = append([]int64(nil), h.Counts...)
	return h
}

// Merge accumulates another histogram with identical bounds into h
// (bucket-wise addition). Mismatched bounds panic: merging histograms
// of different shapes indicates a harness bug. Memory.Stats folds each
// memsim channel's own histograms together here, and run reports merge
// the snapshots of many cells here; addition commutes, so either fold
// gives the same result in any order.
func (h *Hist) Merge(other Hist) {
	if other.N == 0 {
		return
	}
	if h.N == 0 && len(h.Bounds) == 0 {
		*h = other.Clone()
		return
	}
	if len(h.Bounds) != len(other.Bounds) {
		panic("obsv: merging histograms with different bounds")
	}
	for i, b := range h.Bounds {
		if other.Bounds[i] != b {
			panic("obsv: merging histograms with different bounds")
		}
	}
	for i := range h.Counts {
		h.Counts[i] += other.Counts[i]
	}
	h.N += other.N
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
}

// String renders the histogram compactly for logs.
func (h Hist) String() string {
	if len(h.Counts) != len(h.Bounds)+1 {
		return "n=0"
	}
	s := fmt.Sprintf("n=%d mean=%.1f max=%d ", h.N, h.Mean(), h.Max)
	prev := int64(0)
	for i, b := range h.Bounds {
		if h.Counts[i] > 0 {
			s += fmt.Sprintf("[%d..%d]:%d ", prev, b, h.Counts[i])
		}
		prev = b + 1
	}
	if n := h.Counts[len(h.Bounds)]; n > 0 {
		s += fmt.Sprintf("[%d..]:%d ", prev, n)
	}
	return s[:len(s)-1]
}
