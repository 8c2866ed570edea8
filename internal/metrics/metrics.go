// Package metrics provides the summary statistics used throughout the
// emulation study: load imbalance (the paper's normalized standard deviation
// of per-engine kernel event rates), time series of bucketed loads, and the
// small statistical helpers the experiment drivers share.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Imbalance is the paper's load-imbalance metric: the standard deviation of
// the per-engine loads normalized by their mean ("normalized standard
// deviation of {k}", §4.1.1). A perfectly balanced emulation scores 0.
// If the total load is zero the imbalance is defined as 0.
func Imbalance(loads []float64) float64 {
	m := Mean(loads)
	if m == 0 {
		return 0
	}
	return StdDev(loads) / m
}

// ImbalanceSubset returns Imbalance over only the loads whose keep flag is
// set — the post-recovery view of a cluster, where dead engines must not
// drag the mean down. A nil keep considers every load.
func ImbalanceSubset(loads []float64, keep []bool) float64 {
	if keep == nil {
		return Imbalance(loads)
	}
	kept := make([]float64, 0, len(loads))
	for i, l := range loads {
		if i < len(keep) && keep[i] {
			kept = append(kept, l)
		}
	}
	return Imbalance(kept)
}

// MaxOverMean is an auxiliary imbalance measure: max(load)/mean(load).
// It bounds the slowdown of a barrier-synchronized execution and is used by
// the ablation benches. Returns 1 for perfectly balanced loads, 0 when the
// total load is zero.
func MaxOverMean(loads []float64) float64 {
	m := Mean(loads)
	if m == 0 {
		return 0
	}
	mx := loads[0]
	for _, x := range loads[1:] {
		if x > mx {
			mx = x
		}
	}
	return mx / m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mx := xs[0]
	for _, x := range xs[1:] {
		if x > mx {
			mx = x
		}
	}
	return mx
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mn := xs[0]
	for _, x := range xs[1:] {
		if x < mn {
			mn = x
		}
	}
	return mn
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between order statistics. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	pos := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Series is a time series of per-node loads over fixed-width buckets: one row
// per bucket, one column per node. It backs Figure 2 (load variation over the
// lifetime of an emulation) and Figure 8 (fine-grained imbalance).
type Series struct {
	// BucketWidth is the virtual-time width of each bucket in seconds.
	BucketWidth float64
	// Loads[b][n] is the load of node n during bucket b.
	Loads [][]float64
}

// NewSeries creates a Series with the given bucket width, node count, and
// number of buckets, all loads zero.
// The rows are carved from one slab, each capped where it ends, so an append
// to one row reallocates it rather than growing into the next.
func NewSeries(bucketWidth float64, nodes, buckets int) *Series {
	s := &Series{BucketWidth: bucketWidth, Loads: make([][]float64, buckets)}
	slab := make([]float64, nodes*buckets)
	for b := range s.Loads {
		s.Loads[b], slab = slab[:nodes:nodes], slab[nodes:]
	}
	return s
}

// Nodes returns the number of nodes (columns) in the series.
func (s *Series) Nodes() int {
	if len(s.Loads) == 0 {
		return 0
	}
	return len(s.Loads[0])
}

// Buckets returns the number of buckets (rows) in the series.
func (s *Series) Buckets() int { return len(s.Loads) }

// Add accumulates load into the bucket containing virtual time t for node n.
// Out-of-range times are clamped to the first/last bucket so tail events are
// not lost.
func (s *Series) Add(t float64, n int, load float64) {
	if len(s.Loads) == 0 {
		return
	}
	b := int(t / s.BucketWidth)
	if b < 0 {
		b = 0
	}
	if b >= len(s.Loads) {
		b = len(s.Loads) - 1
	}
	s.Loads[b][n] += load
}

// ImbalancePerBucket returns the Imbalance of each bucket's loads — the
// fine-grained imbalance curve of Figure 8.
func (s *Series) ImbalancePerBucket() []float64 {
	out := make([]float64, len(s.Loads))
	for i, row := range s.Loads {
		out[i] = Imbalance(row)
	}
	return out
}

// TotalPerNode returns the per-node load summed over all buckets.
func (s *Series) TotalPerNode() []float64 {
	out := make([]float64, s.Nodes())
	for _, row := range s.Loads {
		for n, v := range row {
			out[n] += v
		}
	}
	return out
}

// TotalPerBucket returns the all-node load of each bucket.
func (s *Series) TotalPerBucket() []float64 {
	out := make([]float64, len(s.Loads))
	for i, row := range s.Loads {
		out[i] = Sum(row)
	}
	return out
}

// DominatingNode returns, for each bucket, the index of the node with the
// maximal load (ties broken toward the lower index). The paper's clustering
// algorithm splits the emulation timeline where the dominating node changes.
func (s *Series) DominatingNode() []int {
	out := make([]int, len(s.Loads))
	for b, row := range s.Loads {
		best := 0
		for n := 1; n < len(row); n++ {
			if row[n] > row[best] {
				best = n
			}
		}
		out[b] = best
	}
	return out
}

// String renders a compact table of the series, mainly for debugging and the
// experiment drivers' verbose mode.
func (s *Series) String() string {
	out := ""
	for b, row := range s.Loads {
		out += fmt.Sprintf("[%6.1fs]", float64(b)*s.BucketWidth)
		for _, v := range row {
			out += fmt.Sprintf(" %10.1f", v)
		}
		out += "\n"
	}
	return out
}

// Improvement returns the relative improvement of b over a: (a-b)/a.
// It is the quantity behind claims like "PROFILE improves load balance by
// 50% to 66%". Returns 0 when a is 0.
func Improvement(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}
