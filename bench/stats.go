package main

import (
	"math"

	"repro/internal/metrics"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 { return metrics.Percentile(xs, 50) }

// tailOK says whether percentile p of n samples may be reported: a tail
// percentile is only quoted when at least ten samples lie beyond it,
// otherwise it is one or two outliers dressed up as a statistic.
func tailOK(n int, p float64) bool {
	return n-int(math.Ceil(float64(n)*p/100)) >= 10
}

// percentile returns the p-th percentile of xs and whether the
// ten-samples-beyond rule (tailOK) allows reporting it.
func percentile(xs []float64, p float64) (float64, bool) {
	return metrics.Percentile(xs, p), tailOK(len(xs), p)
}
