package metrics

// NumBuckets returns the number of buckets.
func (h *Histogram) NumBuckets() int { return len(h.Counts) }

// Mean returns the mean of all observations, 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}
