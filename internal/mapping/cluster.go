package mapping

import "repro/internal/metrics"

// SegmentTimeline implements the paper's §3.3 clustering algorithm: it
// splits an emulation's per-node load timeline into segments whose loads
// become separate balance constraints of the multi-constraint partitioner.
//
// Steps, as described in the paper:
//
//  1. remove buckets that carry little traffic (they cannot contribute load
//     imbalance worth balancing),
//  2. smooth each node's load curve with a moving average,
//  3. find the dominating (maximum-load) node of every kept bucket,
//  4. split the timeline where the dominating node changes — those points
//     mark major load-pattern shifts,
//  5. merge slivers and cap the segment count (each segment costs one
//     constraint in the partitioner).
//
// The result is a list of [first,last] bucket ranges (inclusive), in time
// order, covering the retained buckets. A timeline with fewer than two
// meaningful segments yields a single all-covering segment.
func SegmentTimeline(series *metrics.Series, maxSegments int) [][2]int {
	nb := series.Buckets()
	if nb == 0 {
		return nil
	}
	if maxSegments < 1 {
		maxSegments = 4
	}

	// Step 1: identify low-traffic buckets. Threshold: 10% of the mean load
	// of non-empty buckets.
	totals := series.TotalPerBucket()
	var sum float64
	busyCount := 0
	for _, t := range totals {
		if t > 0 {
			sum += t
			busyCount++
		}
	}
	if busyCount == 0 {
		return [][2]int{{0, nb - 1}}
	}
	threshold := 0.10 * sum / float64(busyCount)
	keep := make([]bool, nb)
	for b, t := range totals {
		keep[b] = t >= threshold
	}

	// Steps 2-4: split where the dominating node of the smoothed curve
	// changes, skipping dropped buckets entirely (they belong to no segment's
	// constraint, but segment ranges still cover them for contiguity).
	type seg struct {
		first, last int
		node        int
		load        float64
	}
	var segs []seg
	row := make([]float64, series.Nodes())
	for b := 0; b < nb; b++ {
		if !keep[b] {
			continue
		}
		dom := smoothedDominator(series, b, row)
		if len(segs) > 0 && segs[len(segs)-1].node == dom {
			segs[len(segs)-1].last = b
			segs[len(segs)-1].load += totals[b]
			continue
		}
		segs = append(segs, seg{first: b, last: b, node: dom, load: totals[b]})
	}
	if len(segs) == 0 {
		return [][2]int{{0, nb - 1}}
	}

	// Step 5a: merge slivers (shorter than 3 buckets) into the
	// lighter-loaded neighbor.
	const minLen = 3
	for i := 0; i < len(segs); {
		if segs[i].last-segs[i].first+1 >= minLen || len(segs) == 1 {
			i++
			continue
		}
		if i == 0 {
			segs[1].first = segs[0].first
			segs[1].load += segs[0].load
			segs = segs[1:]
			continue
		}
		if i == len(segs)-1 || segs[i-1].load <= segs[i+1].load {
			segs[i-1].last = segs[i].last
			segs[i-1].load += segs[i].load
			segs = append(segs[:i], segs[i+1:]...)
			i--
			continue
		}
		segs[i+1].first = segs[i].first
		segs[i+1].load += segs[i].load
		segs = append(segs[:i], segs[i+1:]...)
	}

	// Step 5b: cap the count by merging the adjacent pair with the smallest
	// combined load until within budget.
	for len(segs) > maxSegments {
		best := 0
		bestLoad := segs[0].load + segs[1].load
		for i := 1; i < len(segs)-1; i++ {
			if l := segs[i].load + segs[i+1].load; l < bestLoad {
				best, bestLoad = i, l
			}
		}
		segs[best].last = segs[best+1].last
		segs[best].load += segs[best+1].load
		segs = append(segs[:best+1], segs[best+2:]...)
	}

	out := make([][2]int, len(segs))
	for i, s := range segs {
		out[i] = [2]int{s.first, s.last}
	}
	return out
}

// smoothWindow is the width, in buckets, of the moving average the
// clustering smooths with ("a smooth load curve ... by calculating the
// average load of each node over a larger period of time").
const smoothWindow = 5

// smoothedDominator returns the dominating node of bucket b on the smoothed
// curve: the first node of maximal mean load over the smoothWindow buckets
// centered on b, truncated at the series' ends. The means are summed in
// bucket order into row, one entry per node, then divided by the window's
// span — so every bucket's answer is that of a whole smoothed copy of the
// series, without one.
func smoothedDominator(s *metrics.Series, b int, row []float64) int {
	lo, hi := max(b-smoothWindow/2, 0), min(b+smoothWindow/2, s.Buckets()-1)
	clear(row)
	for i := lo; i <= hi; i++ {
		for n, load := range s.Loads[i] {
			row[n] += load
		}
	}
	span := float64(hi - lo + 1)
	best := 0
	for n := range row {
		row[n] /= span
		if row[n] > row[best] {
			best = n
		}
	}
	return best
}
