// Package stats provides the aggregate helpers the experiment reports
// normalize with: the geometric mean of speedups and the arithmetic
// mean. Component counters are plain uint64 fields of each component's
// Stats struct.
package stats

import "math"

// GeoMean returns the geometric mean of xs. Non-positive entries are
// skipped; an empty input yields 1.0 (the multiplicative identity), which is
// the natural normalization for speedup aggregation.
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		logSum += math.Log(x)
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
