// Package stats provides the small statistical helpers the evaluation
// harness needs: geometric means over normalized performance,
// percentiles, and percentage formatting matching the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Geomean returns the geometric mean of xs. It returns 0 for an empty
// slice and panics if any value is non-positive, since a non-positive
// normalized performance indicates a harness bug.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geomean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// SlowdownPct converts a normalized performance (1.0 = baseline) into
// the slowdown percentage the paper reports: 0.993 -> 0.7 (%).
func SlowdownPct(normPerf float64) float64 {
	return (1 - normPerf) * 100
}

// Percentile returns the p-th percentile (0..100) of xs using nearest-
// rank on a sorted copy. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// Ratio returns a/b as a float, or 0 when b is zero.
func Ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
