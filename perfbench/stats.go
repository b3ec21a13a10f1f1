package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p percent of the samples at or below it. It
// returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the middle sample of xs, or the mean of the two middle samples
// when their count is even, so that two samples give their mean rather than
// the larger one. It returns NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 0 {
		return (s[mid-1] + s[mid]) / 2
	}
	return s[mid]
}

// reportablePercentiles are the percentiles a timing may be summarized
// by, lowest first.
var reportablePercentiles = []float64{50, 90, 95, 99, 99.9}

// highestPercentile is the highest reportable percentile that leaves at
// least ten of n samples beyond it, or 0 when even the median does not.
// A tail percentile with fewer samples beyond it is one or two outliers,
// not a tail.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportablePercentiles {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// beyond counts the samples ranked strictly after the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p * float64(n) / 100))
	return n - rank
}

// minSamplesFor is the smallest sample count for which p is reportable.
func minSamplesFor(p float64) int {
	n := 1
	for beyond(n, p) < 10 {
		n++
	}
	return n
}
