package metrics

import (
	"fmt"
	"math"
)

// Histogram is a streaming fixed-log-bucket histogram: bucket i covers the
// value range [Lo·g^i, Lo·g^(i+1)) for a constant growth factor g, values
// below Lo clamp into bucket 0 and values at or above the top bound clamp
// into the last bucket. The layout is decided once at construction, so
// Observe never allocates and never rebalances — the property the telemetry
// hot path depends on (one histogram per engine, merged at barriers).
//
// Quantiles are estimated by walking the cumulative counts and interpolating
// inside the target bucket (geometrically, matching the log bucket shape;
// linearly from zero inside bucket 0, which holds the sub-Lo values).
type Histogram struct {
	// Lo is the lower bound of bucket 0 (values below it clamp in).
	Lo float64
	// Growth is the per-bucket growth factor g (> 1).
	Growth float64
	// Counts[i] is the number of observations in bucket i.
	Counts []int64
	// Count and Sum aggregate all observations (including clamped ones, at
	// their true values). NaN observations are excluded from both.
	Count int64
	Sum   float64
	// NaNCount counts NaN observations. They belong to no bucket — filing
	// them into bucket 0 would skew the low quantiles, and adding them to Sum
	// would poison the mean — so they are quarantined here and surfaced as
	// their own series in the Prometheus exposition.
	NaNCount int64

	invLogG float64
}

// NewLogHistogram builds a histogram covering [lo, hi) with bucketsPerDecade
// log buckets per factor of 10. lo must be positive and hi > lo;
// bucketsPerDecade defaults to 5 when <= 0 (a ~58% bucket growth).
func NewLogHistogram(lo, hi float64, bucketsPerDecade int) (*Histogram, error) {
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("metrics: histogram needs 0 < lo < hi, got [%g, %g)", lo, hi)
	}
	if bucketsPerDecade <= 0 {
		bucketsPerDecade = 5
	}
	g := math.Pow(10, 1/float64(bucketsPerDecade))
	n := int(math.Ceil(math.Log10(hi/lo) * float64(bucketsPerDecade)))
	if n < 1 {
		n = 1
	}
	return &Histogram{
		Lo:      lo,
		Growth:  g,
		Counts:  make([]int64, n),
		invLogG: 1 / math.Log(g),
	}, nil
}

// MustLogHistogram is NewLogHistogram for statically correct parameters.
func MustLogHistogram(lo, hi float64, bucketsPerDecade int) *Histogram {
	h, err := NewLogHistogram(lo, hi, bucketsPerDecade)
	if err != nil {
		panic(err)
	}
	return h
}

// bucketOf returns the bucket index for v, clamping out-of-range values.
// NaN never reaches here (Observe diverts it to NaNCount).
func (h *Histogram) bucketOf(v float64) int {
	if v < h.Lo {
		return 0
	}
	b := int(math.Log(v/h.Lo) * h.invLogG)
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	return b
}

// Observe records one value. It never allocates. NaN values are counted in
// NaNCount and touch neither the buckets nor Count/Sum.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		h.NaNCount++
		return
	}
	h.Counts[h.bucketOf(v)]++
	h.Count++
	h.Sum += v
}

// UpperBound returns the exclusive upper bound of bucket i.
func (h *Histogram) UpperBound(i int) float64 {
	return h.Lo * math.Pow(h.Growth, float64(i+1))
}

// lowerBound returns the inclusive lower bound of bucket i; bucket 0 also
// holds all clamped sub-Lo values, so its effective lower bound is 0.
func (h *Histogram) lowerBound(i int) float64 {
	if i == 0 {
		return 0
	}
	return h.Lo * math.Pow(h.Growth, float64(i))
}

// Quantile estimates the p-th percentile (0 <= p <= 100) from the bucket
// counts. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(p float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(h.Count)
	var cum int64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + c
		if float64(next) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			lo, hi := h.lowerBound(i), h.UpperBound(i)
			if i == 0 {
				// Bucket 0 holds [0, Lo·g): interpolate linearly from zero.
				return hi * frac
			}
			// Log buckets: geometric interpolation matches the bucket shape.
			return lo * math.Pow(hi/lo, frac)
		}
		cum = next
	}
	return h.UpperBound(len(h.Counts) - 1)
}

// Merge adds o's observations into h. The histograms must share a layout.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if o.Lo != h.Lo || o.Growth != h.Growth || len(o.Counts) != len(h.Counts) {
		return fmt.Errorf("metrics: merging incompatible histograms ([%g,g=%g,%d] vs [%g,g=%g,%d])",
			h.Lo, h.Growth, len(h.Counts), o.Lo, o.Growth, len(o.Counts))
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Count += o.Count
	h.Sum += o.Sum
	h.NaNCount += o.NaNCount
	return nil
}

// CloneHistogram returns a deep copy (nil-safe).
func (h *Histogram) CloneHistogram() *Histogram {
	if h == nil {
		return nil
	}
	cp := *h
	cp.Counts = append([]int64(nil), h.Counts...)
	return &cp
}

// ResetHistogram zeroes all counts, keeping the layout (and allocations).
func (h *Histogram) ResetHistogram() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.Count = 0
	h.Sum = 0
	h.NaNCount = 0
}
