// Package netflow implements the NetFlow-like traffic accounting the paper
// builds into every emulated router (§3.3), kept as the three aggregates the
// PROFILE mapping reads of a profiling run: packets per link, packets per
// router, and each router's load per time bucket.
//
// As in MaSSF, bandwidth is measured in packets rather than bytes, "since
// the real load in the emulator depends on the number of packets it
// processes".
//
// A Collector holds two counters, both sized before the first event: the
// packets that arrived over each link direction, and the bucketed per-node
// load series. Accounting a packet group reaching a node is Observe: one add
// to each, no hashing and no growth. Summarize reads the aggregates off them.
// The paper's routers also write per-flow records to local dump files parsed
// offline; those are not kept, since PROFILE reads only the aggregates.
package netflow

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/metrics"
)

// MaxBuckets bounds the length of a load series. A duration is caller-supplied,
// so the bucket count it implies is clamped, not trusted; at the default 2 s
// width the bound is 36 hours of virtual time, and traffic beyond the last
// bucket is accounted in it (metrics.Series.Add).
const MaxBuckets = 1 << 16

// bucketCount is the series length covering duration seconds.
func bucketCount(duration, bucketWidth float64) int {
	if n := duration / bucketWidth; n > 0 { // false for NaN
		return int(math.Min(n, MaxBuckets-1)) + 1
	}
	return 1
}

// Collector accumulates a profiling run's traffic. One collector services all
// engines: a link direction's slot and a node's column of the series are
// written only by the engine owning the receiving node, so updates are
// data-race-free by construction.
type Collector struct {
	// in[2·link+dir] is the packets that arrived over link in direction dir,
	// the slot numbering of emu.NetState.
	in []int64
	// series is the bucketed per-node kernel-event load (by default in the
	// paper's fine-grained 2 s measurement interval).
	series *metrics.Series
}

// NewCollector creates a collector for numNodes nodes and numLinks links
// covering duration seconds (at most MaxBuckets buckets) at the given bucket
// width (2 s unless positive and finite).
func NewCollector(numNodes, numLinks int, duration, bucketWidth float64) *Collector {
	if !(bucketWidth > 0) || math.IsInf(bucketWidth, 1) { // true for NaN
		bucketWidth = 2
	}
	return &Collector{
		in:     make([]int64, 2*numLinks),
		series: metrics.NewSeries(bucketWidth, numNodes, bucketCount(duration, bucketWidth)),
	}
}

// Observe accounts packets reaching node at time t over link direction inSlot
// (2·link+dir; -1 at the flow's source, where they arrive over no link).
func (c *Collector) Observe(node, inSlot int, packets int64, t float64) {
	if inSlot >= 0 {
		c.in[inSlot] += packets
	}
	c.series.Add(t, node, float64(packets))
}

// Summary is the aggregated view of a profiling run that the PROFILE mapping
// consumes.
type Summary struct {
	// LinkPackets[l] is the total packets carried by link l (both
	// directions), for every link that carried any.
	LinkPackets map[int]int64
	// NodePackets[n] is the total kernel-event load (packets processed) of
	// node n.
	NodePackets []int64
	// NodeSeries is the bucketed per-node load.
	NodeSeries *metrics.Series
}

// Summarize aggregates the collector into per-link and per-node totals. The
// summary shares the collector's series. A node's total is its series row
// summed: the series holds whole packet counts, exact in float64 below 2⁵³.
func (c *Collector) Summarize() *Summary {
	s := &Summary{LinkPackets: make(map[int]int64), NodePackets: make([]int64, c.series.Nodes()), NodeSeries: c.series}
	for l := 0; 2*l < len(c.in); l++ {
		if p := c.in[2*l] + c.in[2*l+1]; p != 0 {
			s.LinkPackets[l] = p
		}
	}
	for n, p := range c.series.TotalPerNode() {
		s.NodePackets[n] = int64(p)
	}
	return s
}

// TopLinks returns the n busiest links by packet count, descending
// (deterministic tie-break on link ID); none when n <= 0.
func (s *Summary) TopLinks(n int) []int {
	links := make([]int, 0, len(s.LinkPackets))
	for l := range s.LinkPackets {
		links = append(links, l)
	}
	slices.SortFunc(links, func(a, b int) int {
		return cmp.Or(cmp.Compare(s.LinkPackets[b], s.LinkPackets[a]), cmp.Compare(a, b))
	})
	return links[:min(max(n, 0), len(links))]
}
