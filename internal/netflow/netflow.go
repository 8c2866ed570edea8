// Package netflow implements the Cisco-NetFlow-like traffic accounting the
// paper builds into every emulated router (§3.3): per-router flow records
// with packet counts, durations and byte volumes, dump-file serialization,
// and the aggregation queries the PROFILE mapping consumes — per-link and
// per-node traffic totals plus bucketed per-node load series.
//
// As in MaSSF, bandwidth is measured in packets rather than bytes, "since
// the real load in the emulator depends on the number of packets it
// processes".
//
// The store is a slab of record slots. Routes are static for a run, so the
// emulator reserves one slot per (flow, hop) before the first event, in
// workload order, which fixes everything about a record but its counters;
// accounting a packet group is then ObserveAt(slot): an index and a few adds,
// no hashing and no growth. A record's flow identity is stored once per flow.
// Reads are the cold path: Records emits the slots traffic actually reached (a
// chunk dropped upstream leaves the rest of its route untouched), Summarize
// sums the slab.
//
// Record order is a function of the emulated network and its workload, never
// of the mapping: node, then the flow's position in the workload, then hop.
// Two flows that share a FlowID yield two records per common (node, in-link)
// where a keyed store would merge them; their sums, and so Summarize, are the
// same.
package netflow

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// Record is one (router, flow) accounting entry.
type Record struct {
	// Node is the router/host that observed the flow.
	Node int
	// FlowID identifies the flow within the workload.
	FlowID int
	// Src and Dst are the flow's endpoints.
	Src, Dst int
	// InLink is the link the traffic arrived on (-1 at the source host).
	InLink int
	// Packets and Bytes observed at this node for this flow.
	Packets int64
	Bytes   int64
	// First and Last are the observation window in virtual seconds. A reserved
	// slot nothing has reached yet holds the empty window (+Inf, -Inf).
	First, Last float64
}

// MaxBuckets bounds the length of a load series. A duration is caller- or
// dump-supplied, so the bucket count it implies is clamped, not trusted; at
// the default 2 s width the bound is 36 hours of virtual time, and traffic
// beyond the last bucket is accounted in it (metrics.Series.Add).
const MaxBuckets = 1 << 16

// bucketCount is the series length covering duration seconds.
func bucketCount(duration, bucketWidth float64) int {
	if n := duration / bucketWidth; n > 0 { // false for NaN
		return int(math.Min(n, MaxBuckets-1)) + 1
	}
	return 1
}

// Collector accumulates flow records during an emulation run. One collector
// services all engines: a slot belongs to one node, nodes are owned by exactly
// one engine, so updates are data-race-free by construction.
type Collector struct {
	// BucketWidth is the granularity of the per-node load series (the
	// "granularity of the NetFlow" tuning knob; default 2s, matching the
	// paper's fine-grained measurement interval).
	BucketWidth float64
	// flows holds every reserved flow in reservation order, slots their hops,
	// flow by flow and hop by hop within a flow.
	flows []flowEntry
	slots []slot
	// series is the bucketed per-node kernel-event load.
	series *metrics.Series
}

// slot is one (flow, hop) Record without the flow's identity: FlowID is its
// flow entry's, Src and Dst are the nodes of the flow's first and last slot.
type slot struct {
	packets, bytes int64
	first, last    float64
	node, inLink   int32
}

// flowEntry is one reserved flow; its slots run from base to the next entry's.
type flowEntry struct {
	id, base int
}

// NewCollector creates a collector for numNodes nodes covering duration
// seconds (at most MaxBuckets buckets) at the given bucket width, with room
// for flows reserved flows of slots hops in all.
func NewCollector(numNodes, flows, slots int, duration, bucketWidth float64) *Collector {
	if bucketWidth <= 0 {
		bucketWidth = 2
	}
	return &Collector{
		BucketWidth: bucketWidth,
		flows:       make([]flowEntry, 0, flows),
		slots:       make([]slot, 0, slots),
		series:      metrics.NewSeries(bucketWidth, numNodes, bucketCount(duration, bucketWidth)),
	}
}

// Reserve adds one slot per node of a flow's route (path holds its nodes, src
// to dst; links the len(path)-1 links between them) and returns the first:
// hop h of the flow is accounted at slot base+h. Node and link ids are stored
// as int32 and must fit one.
func (c *Collector) Reserve(flowID int, path, links []int) (base int) {
	base = len(c.slots)
	c.flows = append(c.flows, flowEntry{id: flowID, base: base})
	for h, node := range path {
		inLink := -1
		if h > 0 {
			inLink = links[h-1]
		}
		c.slots = append(c.slots, slot{node: int32(node), inLink: int32(inLink), first: math.Inf(1), last: math.Inf(-1)})
	}
	return base
}

// ObserveAt accounts packets of a flow passing through a reserved slot's node
// at time t.
func (c *Collector) ObserveAt(slot int, packets, bytes int64, t float64) {
	s := &c.slots[slot]
	s.packets += packets
	s.bytes += bytes
	if t < s.first {
		s.first = t
	}
	if t > s.last {
		s.last = t
	}
	c.series.Add(t, int(s.node), float64(packets))
}

// Records returns the records traffic has reached, ordered by node, then
// reservation order (the flow's workload position, then hop).
func (c *Collector) Records() []Record {
	// A counting sort on node keeps the slab's order within each node.
	next := make([]int, c.series.Nodes()+1)
	for i := range c.slots {
		if s := &c.slots[i]; s.first <= s.last {
			next[s.node+1]++
		}
	}
	for n := 1; n < len(next); n++ {
		next[n] += next[n-1]
	}
	out := make([]Record, next[len(next)-1])
	for f, fl := range c.flows {
		end := len(c.slots)
		if f+1 < len(c.flows) {
			end = c.flows[f+1].base
		}
		hops := c.slots[fl.base:end]
		for i := range hops {
			s := &hops[i]
			if s.first > s.last {
				continue
			}
			out[next[s.node]] = Record{
				Node: int(s.node), FlowID: fl.id, Src: int(hops[0].node), Dst: int(hops[len(hops)-1].node),
				InLink: int(s.inLink), Packets: s.packets, Bytes: s.bytes, First: s.first, Last: s.last,
			}
			next[s.node]++
		}
	}
	return out
}

// Series returns the bucketed per-node kernel-event load collected so far.
func (c *Collector) Series() *metrics.Series { return c.series }

// Summary is the aggregated view of a profiling run that the PROFILE mapping
// consumes.
type Summary struct {
	// LinkPackets[l] is the total packets carried by link l (both
	// directions).
	LinkPackets map[int]int64
	// NodePackets[n] is the total kernel-event load (packets processed) of
	// node n.
	NodePackets []int64
	// NodeSeries is the bucketed per-node load.
	NodeSeries *metrics.Series
}

// Summarize aggregates the collector into per-link and per-node totals.
func (c *Collector) Summarize() *Summary {
	s := &Summary{
		LinkPackets: make(map[int]int64),
		NodePackets: make([]int64, c.series.Nodes()),
		NodeSeries:  c.series,
	}
	for i := range c.slots {
		r := &c.slots[i]
		if r.first > r.last {
			continue
		}
		s.NodePackets[r.node] += r.packets
		if r.inLink >= 0 {
			s.LinkPackets[int(r.inLink)] += r.packets
		}
	}
	return s
}

// ---- Dump-file serialization ----
//
// The dump format is one record per line:
//
//	node flow src dst inlink packets bytes first last
//
// matching the paper's description of per-router local dump files that are
// parsed offline to compute aggregated traffic.

// WriteDump serializes records to w in the order given; Collector.Records'
// order (node, workload position, hop) makes the dump of a run independent of
// the mapping it ran under.
func WriteDump(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# node flow src dst inlink packets bytes first last"); err != nil {
		return err
	}
	for _, r := range records {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d %d %d %d %.17g %.17g\n",
			r.Node, r.FlowID, r.Src, r.Dst, r.InLink, r.Packets, r.Bytes, r.First, r.Last); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ErrBadDump is returned (wrapped, with the line number) by ReadDump for a
// line that is not a record a collector could have written.
var ErrBadDump = errors.New("netflow: bad dump")

// MaxDumpID and MaxDumpTime bound the node, flow and link ids and the
// timestamps ReadDump accepts: readers size tables by the largest id and series
// by the latest time they see, so either is a claim on memory.
const (
	MaxDumpID   = 1 << 22
	MaxDumpTime = 1e9 // virtual seconds
)

// ReadDump parses a dump produced by WriteDump. Every field is validated:
// ids in [0, MaxDumpID] (InLink from -1), counts non-negative,
// 0 <= First <= Last <= MaxDumpTime.
func ReadDump(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var out []Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := parseRecord(strings.Fields(line))
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadDump, lineNo, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netflow: read dump: %w", err)
	}
	return out, nil
}

func parseRecord(f []string) (rec Record, err error) {
	if len(f) != 9 {
		return rec, fmt.Errorf("%d fields, want 9", len(f))
	}
	var v [7]int64 // the five ids, then packets and bytes
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i], 10, 64); err != nil {
			return rec, err
		}
		min := int64(0)
		if i == 4 { // InLink: -1 at the source
			min = -1
		}
		if v[i] < min || i < 5 && v[i] > MaxDumpID {
			return rec, fmt.Errorf("field %d: %d out of range", i+1, v[i])
		}
	}
	rec = Record{Node: int(v[0]), FlowID: int(v[1]), Src: int(v[2]), Dst: int(v[3]), InLink: int(v[4]),
		Packets: v[5], Bytes: v[6]}
	if rec.First, err = strconv.ParseFloat(f[7], 64); err != nil {
		return rec, err
	}
	if rec.Last, err = strconv.ParseFloat(f[8], 64); err != nil {
		return rec, err
	}
	if !(0 <= rec.First && rec.First <= rec.Last && rec.Last <= MaxDumpTime) { // false for NaN
		return rec, fmt.Errorf("observation window [%v, %v] is not ordered within [0, %g]", rec.First, rec.Last, MaxDumpTime)
	}
	return rec, nil
}

// SummarizeRecords aggregates parsed dump records (the offline path: parse
// dump files, then compute aggregated traffic). numNodes must cover every
// node ID in records; the series is rebuilt by spreading each record's
// packets uniformly over its [First, Last] span at the given bucket width —
// the granularity information a NetFlow dump retains. Like a collector's, the
// series has at most MaxBuckets buckets whatever duration says.
func SummarizeRecords(records []Record, numNodes int, duration, bucketWidth float64) *Summary {
	if bucketWidth <= 0 {
		bucketWidth = 2
	}
	buckets := bucketCount(duration, bucketWidth)
	s := &Summary{
		LinkPackets: make(map[int]int64),
		NodePackets: make([]int64, numNodes),
		NodeSeries:  metrics.NewSeries(bucketWidth, numNodes, buckets),
	}
	for _, r := range records {
		if r.Node < 0 || r.Node >= numNodes {
			continue
		}
		s.NodePackets[r.Node] += r.Packets
		if r.InLink >= 0 {
			s.LinkPackets[r.InLink] += r.Packets
		}
		span := r.Last - r.First
		if span <= 0 {
			s.NodeSeries.Add(r.First, r.Node, float64(r.Packets))
			continue
		}
		// Spread uniformly across the buckets the record covers, clamped into
		// the series like an instantaneous record's time.
		startB := min(max(int(r.First/bucketWidth), 0), buckets-1)
		endB := min(max(int(r.Last/bucketWidth), 0), buckets-1)
		n := endB - startB + 1
		per := float64(r.Packets) / float64(n)
		for b := startB; b <= endB; b++ {
			s.NodeSeries.Add((float64(b)+0.5)*bucketWidth, r.Node, per)
		}
	}
	return s
}

// TopLinks returns the n busiest links by packet count, descending
// (deterministic tie-break on link ID).
func (s *Summary) TopLinks(n int) []int {
	type lp struct {
		link    int
		packets int64
	}
	all := make([]lp, 0, len(s.LinkPackets))
	for l, p := range s.LinkPackets {
		all = append(all, lp{l, p})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].packets != all[j].packets {
			return all[i].packets > all[j].packets
		}
		return all[i].link < all[j].link
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].link
	}
	return out
}
