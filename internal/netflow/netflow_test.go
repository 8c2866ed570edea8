package netflow

import (
	"math"
	"runtime"
	"testing"
)

func TestCollectorAggregation(t *testing.T) {
	// Flow 0 runs 1 -> 2 -> 4 over links 7 and 8, flow 1 runs 3 -> 2 over
	// link 9 and back 2 -> 3. Link 7 joins 1 and 2, so 1 sends over it in
	// direction 0; link 9 joins 2 and 3, so 3 sends in direction 1.
	c := NewCollector(5, 10, 100, 2)
	c.Observe(1, -1, 10, 1.0)
	c.Observe(2, 2*7, 10, 1.5)
	c.Observe(2, 2*7, 5, 3.5) // same flow again, later
	c.Observe(2, 2*9+1, 10, 2.0)
	c.Observe(2, 2*9+1, 10, 2.0)
	c.Observe(3, 2*9, 4, 2.5) // the reverse direction of link 9

	s := c.Summarize()
	if s.NodePackets[1] != 10 || s.NodePackets[2] != 35 || s.NodePackets[3] != 4 || s.NodePackets[4] != 0 {
		t.Errorf("NodePackets = %v", s.NodePackets)
	}
	if len(s.LinkPackets) != 2 || s.LinkPackets[7] != 15 || s.LinkPackets[9] != 24 {
		t.Errorf("LinkPackets = %v, want 7:15 and 9:24 (both directions, only links that carried any)", s.LinkPackets)
	}
	// Series bucketed at 2s: node 2 has 10 packets in bucket 0 (t=1.5),
	// 20 in bucket 1 (t=2.0), 5 in bucket 1 (t=3.5).
	if got := s.NodeSeries.Loads[0][2]; got != 10 {
		t.Errorf("series[0][2] = %v, want 10", got)
	}
	if got := s.NodeSeries.Loads[1][2]; got != 25 {
		t.Errorf("series[1][2] = %v, want 25", got)
	}
	c.Observe(2, 2*7, 1, 0)
	if s.NodeSeries.Loads[0][2] != 11 {
		t.Error("the summary does not share the collector's live series")
	}
}

// TestBucketCountIsClamped: a duration is a claim on memory (buckets × nodes
// floats), so the collector does not take it at its word; below the bound
// nothing changes.
func TestBucketCountIsClamped(t *testing.T) {
	for _, d := range []float64{1e13, math.Inf(1), 2 * MaxBuckets} {
		if got := NewCollector(1, 0, d, 2).Summarize().NodeSeries.Buckets(); got != MaxBuckets {
			t.Errorf("NewCollector(duration %g): %d buckets, want MaxBuckets", d, got)
		}
	}
	for d, want := range map[float64]int{-5: 1, 0: 1, 1.9: 1, 2: 2, 100: 51, 2*MaxBuckets - 1: MaxBuckets} {
		if got := NewCollector(1, 0, d, 2).Summarize().NodeSeries.Buckets(); got != want {
			t.Errorf("NewCollector(duration %g): %d buckets, want %d", d, got, want)
		}
	}
	if got := NewCollector(1, 0, math.NaN(), 2).Summarize().NodeSeries.Buckets(); got != 1 {
		t.Errorf("NaN duration: %d buckets, want 1", got)
	}
	// A width that is not positive and finite is the 2 s default, so the
	// count is the default's, not one bucket that int(NaN) files everything in.
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		if got := NewCollector(1, 0, 100, w).Summarize().NodeSeries.Buckets(); got != 51 {
			t.Errorf("NewCollector(width %g): %d buckets, want 51", w, got)
		}
	}
	// Traffic past the last bucket is still accounted, folded into it.
	c := NewCollector(1, 0, 2*MaxBuckets, 2)
	c.Observe(0, -1, 3, 1e9)
	if got := c.Summarize().NodePackets[0]; got != 3 {
		t.Errorf("clamped series holds %d packets, want 3", got)
	}
}

// TestNetFlowHotPathNoAllocs is the steady-state gate: accounting a packet
// group allocates nothing.
func TestNetFlowHotPathNoAllocs(t *testing.T) {
	path, slots := []int{0, 1, 3}, []int{-1, 2 * 2, 2*5 + 1}
	c := NewCollector(4, 6, 50, 2)
	now := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		for h, node := range path {
			c.Observe(node, slots[h], 44, now)
		}
		now += 0.05
	}); n != 0 {
		t.Errorf("Observe allocates %v times per packet group route, want 0", n)
	}
}

// TestCollectorBytesPerSlot is the storage cost gate: a collector allocates
// 8 B per link direction, 16 B per link, plus the series, and nothing per
// flow or hop, however much traffic it accounts.
func TestCollectorBytesPerSlot(t *testing.T) {
	const links, nodes, duration = 10_000, 100, 100.0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCollector(nodes, links, duration, 2)
	for i := 0; i < 100_000; i++ {
		c.Observe(i%nodes, i%(2*links), 10, float64(i%100))
	}
	runtime.ReadMemStats(&after)
	buckets := c.Summarize().NodeSeries.Buckets()
	series := buckets * (nodes*8 + 24) // the row slab and the row headers
	const slack = 3*8<<10 + 1<<10      // three large slabs round up to 8 KiB pages; the structs
	budget := uint64(16*links + series + slack)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
		t.Errorf("a collector of %d links allocated %d B, budget %d B", links, grew, budget)
	}
}

func TestTopLinks(t *testing.T) {
	s := &Summary{LinkPackets: map[int]int64{1: 100, 2: 300, 3: 200, 4: 300}}
	top := s.TopLinks(3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	// 300-packet links first (tie broken by ID), then 200.
	if top[0] != 2 || top[1] != 4 || top[2] != 3 {
		t.Errorf("top = %v, want [2 4 3]", top)
	}
	if got := s.TopLinks(99); len(got) != 4 {
		t.Errorf("TopLinks(99) = %v, want all 4", got)
	}
	for _, n := range []int{0, -1} {
		if got := s.TopLinks(n); got == nil || len(got) != 0 {
			t.Errorf("TopLinks(%d) = %#v, want an empty slice", n, got)
		}
	}
}

func TestCollectorDefaultBucketWidth(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := NewCollector(1, 0, 10, w).Summarize().NodeSeries.BucketWidth; got != 2 {
			t.Errorf("width %g: series of %v s buckets, want the 2 s default", w, got)
		}
	}
}
