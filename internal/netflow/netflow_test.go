package netflow

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// The tests' packetization: 15 000 B chunks of 1500 B packets, 10 packets a
// full chunk.
const testChunk, testMTU = 15000, 1500

func TestCollectorAggregation(t *testing.T) {
	// Flow 0 runs 1 -> 2 -> 4 (links 7, 8), flow 1 runs 3 -> 2 -> 4 (links
	// 9, 8). Nothing reaches node 4: those two slots stay reserved and unseen.
	routes := []Route{{Path: []int{1, 2, 4}, Links: []int{7, 8}}, {Path: []int{3, 2, 4}, Links: []int{9, 8}}}
	c := NewCollector(5, routes, testChunk, testMTU, 2, 6, 100, 2)
	f0, f1 := c.Reserve(0, 0), c.Reserve(1, 1)
	// Flow 0 is a full chunk and a 7500 B remainder, flow 1 two full chunks.
	c.ObserveAt(f0, 0, 1, 10, 15000, 1.0)
	c.ObserveAt(f0, 1, 2, 10, 15000, 1.5)
	c.ObserveAt(f0, 1, 2, 5, 7500, 3.5) // same flow again, later
	c.ObserveAt(f1, 1, 2, 10, 15000, 2.0)
	c.ObserveAt(f1, 1, 2, 10, 15000, 2.0)

	recs := c.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3 (one per slot traffic reached)", len(recs))
	}
	want := Record{Node: 2, FlowID: 1, Src: 3, Dst: 4, InLink: 9, Packets: 20, Bytes: 30000, First: 2, Last: 2}
	if recs[2] != want {
		t.Errorf("last record %+v, want %+v (node order, then reservation order)", recs[2], want)
	}
	s := c.Summarize()
	if s.NodePackets[1] != 10 || s.NodePackets[2] != 35 {
		t.Errorf("NodePackets = %v", s.NodePackets)
	}
	if s.LinkPackets[7] != 15 || s.LinkPackets[9] != 20 {
		t.Errorf("LinkPackets = %v", s.LinkPackets)
	}
	if _, ok := s.LinkPackets[-1]; ok {
		t.Error("source observations must not count as link traffic")
	}
	// Record merging tracked first/last.
	for _, r := range recs {
		if r.Node == 2 && r.FlowID == 0 {
			if r.First != 1.5 || r.Last != 3.5 {
				t.Errorf("first/last = %v/%v, want 1.5/3.5", r.First, r.Last)
			}
			if r.Packets != 15 {
				t.Errorf("merged packets = %d, want 15", r.Packets)
			}
		}
	}
	// Series bucketed at 2s: node 2 has 10 packets in bucket 0 (t=1.5),
	// 20 in bucket 1 (t=2.0), 5 in bucket 1 (t=3.5).
	if c.Series().Loads[0][2] != 10 {
		t.Errorf("series[0][2] = %v, want 10", c.Series().Loads[0][2])
	}
	if c.Series().Loads[1][2] != 25 {
		t.Errorf("series[1][2] = %v, want 25", c.Series().Loads[1][2])
	}
}

func TestDumpRoundTrip(t *testing.T) {
	routes := []Route{{Path: []int{0, 1, 3}, Links: []int{2, 5}}, {Path: []int{2, 3}, Links: []int{4}}}
	c := NewCollector(4, routes, testChunk, testMTU, 2, 5, 50, 2)
	f0, f1 := c.Reserve(0, 0), c.Reserve(1, 1)
	c.ObserveAt(f0, 0, 0, 7, 10500, 0.5)
	c.ObserveAt(f0, 1, 1, 7, 10500, 0.7)
	c.ObserveAt(f1, 1, 3, 9, 13500, 1.2)
	recs := c.Records()

	var buf bytes.Buffer
	if err := WriteDump(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip records = %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d changed: %+v -> %+v", i, recs[i], got[i])
		}
	}
}

// The two lines that used to take cmd/netflow down with an out-of-memory
// fault: a node id that sizes a table, and a duration that sizes a series.
const (
	hostileNodeID   = "4000000000000 0 0 1 -1 1 1 0 1\n"
	hostileDuration = "0 0 0 1 -1 1 1 0 1e13\n"
)

func TestReadDumpErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"field count", "1 2 3\n"},
		{"bad int", "a 0 0 0 0 0 0 0 0\n"},
		{"bad packets", "0 0 0 0 0 x 0 0 0\n"},
		{"bad bytes", "0 0 0 0 0 0 y 0 0\n"},
		{"bad first", "0 0 0 0 0 0 0 z 0\n"},
		{"bad last", "0 0 0 0 0 0 0 0 w\n"},
		{"node id sizes a table", hostileNodeID},
		{"negative node", "-1 0 0 0 0 0 0 0 0\n"},
		{"negative flow", "0 -1 0 0 0 0 0 0 0\n"},
		{"negative src", "0 0 -1 0 0 0 0 0 0\n"},
		{"negative dst", "0 0 0 -2 0 0 0 0 0\n"},
		{"inlink below -1", "0 0 0 0 -2 0 0 0 0\n"},
		{"flow id past the bound", "0 4194305 0 0 0 0 0 0 0\n"},
		{"link id past the bound", "0 0 0 0 4194305 0 0 0 0\n"},
		{"negative packets", "0 0 0 0 0 -1 0 0 0\n"},
		{"negative bytes", "0 0 0 0 0 0 -1 0 0\n"},
		{"NaN first", "0 0 0 0 0 0 0 NaN 0\n"},
		{"infinite last", "0 0 0 0 0 0 0 0 +Inf\n"},
		{"overflowing last", "0 0 0 0 0 0 0 0 1e999\n"},
		{"inverted window", "0 0 0 0 0 0 0 2 1\n"},
		{"negative first", "0 0 0 0 0 0 0 -1 1\n"},
		{"duration sizes a series", hostileDuration},
		{"bad line after a good one", "0 0 0 0 -1 1 1 0 0\n0 0 0 0 -1 1 1 1 0\n"},
	}
	for _, c := range cases {
		if _, err := ReadDump(strings.NewReader(c.in)); !errors.Is(err, ErrBadDump) {
			t.Errorf("%s: err = %v, want ErrBadDump", c.name, err)
		}
	}
	if _, err := ReadDump(strings.NewReader(cases[len(cases)-1].in)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %v does not name line 2", err)
	}
	// Comments and blank lines are fine; so are the largest ids and an
	// instantaneous record.
	recs, err := ReadDump(strings.NewReader("# header\n\n0 1 2 3 4 5 6 7.5 8.5\n4194304 4194304 0 0 -1 0 0 3 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Packets != 5 || recs[0].First != 7.5 || recs[1].Node != MaxDumpID {
		t.Errorf("parsed %+v", recs)
	}
}

// TestBucketCountIsClamped: a duration is a claim on memory (buckets × nodes
// floats), so neither the collector nor the offline summary takes it at its
// word; below the bound nothing changes.
func TestBucketCountIsClamped(t *testing.T) {
	recs := []Record{{InLink: -1, Packets: 1, Bytes: 1, Last: MaxDumpTime}}
	for _, d := range []float64{1e13, math.Inf(1), 2 * MaxBuckets} {
		if got := SummarizeRecords(recs, 1, d, 2).NodeSeries.Buckets(); got != MaxBuckets {
			t.Errorf("SummarizeRecords(duration %g): %d buckets, want MaxBuckets", d, got)
		}
		if got := NewCollector(1, nil, testChunk, testMTU, 0, 0, d, 2).Series().Buckets(); got != MaxBuckets {
			t.Errorf("NewCollector(duration %g): %d buckets, want MaxBuckets", d, got)
		}
	}
	for d, want := range map[float64]int{-5: 1, 0: 1, 1.9: 1, 2: 2, 100: 51, 2*MaxBuckets - 1: MaxBuckets} {
		if got := NewCollector(1, nil, testChunk, testMTU, 0, 0, d, 2).Series().Buckets(); got != want {
			t.Errorf("NewCollector(duration %g): %d buckets, want %d", d, got, want)
		}
	}
	if got := NewCollector(1, nil, testChunk, testMTU, 0, 0, math.NaN(), 2).Series().Buckets(); got != 1 {
		t.Errorf("NaN duration: %d buckets, want 1", got)
	}
	// A width that is not positive and finite is the 2 s default, so the
	// count is the default's, not one bucket that int(NaN) files everything in.
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		if got := NewCollector(1, nil, testChunk, testMTU, 0, 0, 100, w).Series().Buckets(); got != 51 {
			t.Errorf("NewCollector(width %g): %d buckets, want 51", w, got)
		}
		if s := SummarizeRecords(recs, 1, 100, w).NodeSeries; s.Buckets() != 51 || s.BucketWidth != 2 {
			t.Errorf("SummarizeRecords(width %g): %d buckets of %g s, want 51 of 2", w, s.Buckets(), s.BucketWidth)
		}
	}
	// The record's packets are all still accounted, folded into the buckets kept.
	if got := SummarizeRecords(recs, 1, recs[0].Last, 2).NodeSeries.TotalPerNode()[0]; math.Abs(got-1) > 1e-9 {
		t.Errorf("clamped series holds %v packets, want 1", got)
	}
}

// TestNetFlowHotPathNoAllocs is the steady-state gate: accounting a packet
// group at a reserved slot allocates nothing.
func TestNetFlowHotPathNoAllocs(t *testing.T) {
	path := []int{0, 1, 3}
	c := NewCollector(4, []Route{{Path: path, Links: []int{2, 5}}}, 65536, 1500, 1, 3, 50, 2)
	f := c.Reserve(0, 0)
	now := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		for h, node := range path {
			c.ObserveAt(f, h, node, 44, 65536, now)
		}
		now += 0.05
	}); n != 0 {
		t.Errorf("ObserveAt allocates %v times per packet group route, want 0", n)
	}
}

// TestCollectorBytesPerSlot is the storage cost gate: a collector sized for
// its flows allocates 24 B per reserved hop (bytes, first, last) and 16 B per
// flow (id, first slot, route), plus the series, and nothing for growth or for
// the routes, which it aliases.
func TestCollectorBytesPerSlot(t *testing.T) {
	const flows, hops, nodes, duration = 10_000, 6, 100, 100.0
	path, links := make([]int, hops), make([]int, hops-1)
	for h := range path {
		path[h] = h * 7 % nodes
	}
	routes := []Route{{Path: path, Links: links}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCollector(nodes, routes, testChunk, testMTU, flows, flows*hops, duration, 2)
	for f := 0; f < flows; f++ {
		c.Reserve(f, 0)
	}
	runtime.ReadMemStats(&after)
	buckets := c.Series().Buckets()
	series := buckets * (nodes*8 + 24) // the row slab and the row headers
	const slack = 3*8<<10 + 1<<10      // three large slabs round up to 8 KiB pages; the structs
	budget := uint64(24*flows*hops + 16*flows + series + slack)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
		t.Errorf("%d flows of %d hops allocated %d B, budget %d B", flows, hops, grew, budget)
	}
}

func TestSummarizeRecords(t *testing.T) {
	recs := []Record{
		{Node: 0, FlowID: 0, InLink: -1, Packets: 10, First: 0, Last: 0},
		{Node: 1, FlowID: 0, InLink: 3, Packets: 10, First: 2, Last: 6},
		{Node: 2, FlowID: 1, InLink: 4, Packets: 8, First: 5, Last: 5},
	}
	s := SummarizeRecords(recs, 3, 10, 2)
	if s.NodePackets[0] != 10 || s.NodePackets[1] != 10 || s.NodePackets[2] != 8 {
		t.Errorf("NodePackets = %v", s.NodePackets)
	}
	if s.LinkPackets[3] != 10 || s.LinkPackets[4] != 8 {
		t.Errorf("LinkPackets = %v", s.LinkPackets)
	}
	// Record spanning [2,6] spreads 10 packets over buckets 1..3.
	total := 0.0
	for b := 1; b <= 3; b++ {
		total += s.NodeSeries.Loads[b][1]
	}
	if total < 9.9 || total > 10.1 {
		t.Errorf("spread packets = %v, want 10", total)
	}
	// A record spanning from past the last bucket is clamped into it, like an
	// instantaneous one at the same time: no packet leaves the series.
	late := SummarizeRecords([]Record{
		{Node: 0, InLink: -1, Packets: 10, First: 30, Last: 30},
		{Node: 0, InLink: -1, Packets: 10, First: 30, Last: 34},
	}, 1, 10, 2)
	if got, want := late.NodeSeries.TotalPerNode()[0], float64(late.NodePackets[0]); got != want || want != 20 {
		t.Errorf("late records: series total %v, NodePackets %v, want both 20", got, want)
	}
	// Out-of-range node IDs are skipped, not a panic.
	s2 := SummarizeRecords([]Record{{Node: 99, Packets: 5}}, 3, 10, 2)
	if s2.NodePackets[0] != 0 {
		t.Error("out-of-range record affected totals")
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
		if got := NewCollector(1, nil, testChunk, testMTU, 0, 0, 10, w).Series().BucketWidth; got != 2 {
			t.Errorf("width %g: series of %v s buckets, want the 2 s default", w, got)
		}
	}
}
