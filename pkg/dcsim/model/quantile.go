package model

import (
	"math"
	"sort"
)

// quantileSelectMin is the window size at which Quantile switches from
// sort-a-copy (O(n log n)) to quickselect order statistics (O(n)
// expected). Below it the sort's constant factors win; the crossover errs
// high so small windows (a 720-sample period included) keep the sort
// path exactly.
const quantileSelectMin = 1024

// Quantile returns the q-th quantile (q in [0,1]) of xs, exactly — the
// linearly interpolated order statistic a sorted copy yields, 0 for an
// empty window. Large windows take a quickselect path instead of sorting;
// the result is identical (both compute the same two order statistics),
// only the cost differs. xs is never modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if len(xs) >= quantileSelectMin {
		if v, ok := quantileSelect(xs, q); ok {
			return v
		}
		// NaN in the window: fall through to the sort path, whose
		// NaN ordering is the long-standing behavior.
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile over a window already sorted ascending, in
// O(1). The window must be non-empty.
func QuantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := q * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// quantileSelect computes the interpolated quantile via in-place
// quickselect on a scratch copy. It reports ok=false when the window
// holds a NaN (comparison-based partitioning has no total order then).
func quantileSelect(xs []float64, q float64) (float64, bool) {
	scratch := make([]float64, len(xs))
	for i, x := range xs {
		if math.IsNaN(x) {
			return 0, false
		}
		scratch[i] = x
	}
	n := len(scratch)
	if q <= 0 {
		return minOf(scratch), true
	}
	if q >= 1 {
		return maxOf(scratch), true
	}
	rank := q * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	vlo := selectKth(scratch, lo)
	if lo == hi {
		return vlo, true
	}
	// selectKth leaves scratch partitioned around lo, so the next order
	// statistic is the minimum of the upper partition.
	vhi := minOf(scratch[lo+1:])
	frac := rank - float64(lo)
	return vlo*(1-frac) + vhi*frac, true
}

// selectKth partitions a in place so a[k] holds the k-th smallest element,
// with a[:k] <= a[k] <= a[k+1:]. Median-of-3 pivots keep it deterministic
// (no rng) and defeat sorted/reverse-sorted inputs.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Median-of-3 pivot, moved to the end for Lomuto partitioning.
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		a[mid], a[hi] = a[hi], a[mid]
		pivot := a[hi]
		p := lo
		for i := lo; i < hi; i++ {
			if a[i] < pivot {
				a[i], a[p] = a[p], a[i]
				p++
			}
		}
		a[p], a[hi] = a[hi], a[p]
		switch {
		case k < p:
			hi = p - 1
		case k > p:
			lo = p + 1
		default:
			return a[k]
		}
	}
	return a[k]
}

func minOf(a []float64) float64 {
	m := a[0]
	for _, x := range a[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(a []float64) float64 {
	m := a[0]
	for _, x := range a[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
