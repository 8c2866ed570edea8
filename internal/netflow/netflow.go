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
// accounting a packet group is then ObserveAt(flow, hop): two indexes and a
// few adds, no hashing and no growth. A slot keeps only its bytes and its
// observation window: the flow's id and route (the caller's routes, aliased)
// and the packetization rule (ObserveAt) give the rest. Reads are the cold
// path: Records emits the slots traffic actually reached (a chunk dropped
// upstream leaves the rest of its route untouched), Summarize sums them.
//
// Record order is a function of the emulated network and its workload, never
// of the mapping: node, then the flow's position in the workload, then hop.
// Two flows that share a FlowID yield two records per common (node, in-link)
// where a keyed store would merge them; their sums, and so Summarize, are the
// same.
package netflow

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
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

// newSeries is the load series of numNodes nodes covering duration seconds at
// bucketWidth, or at the 2 s default when that is not positive and finite.
func newSeries(numNodes int, duration, bucketWidth float64) *metrics.Series {
	if !(bucketWidth > 0) || math.IsInf(bucketWidth, 1) { // true for NaN
		bucketWidth = 2
	}
	return metrics.NewSeries(bucketWidth, numNodes, bucketCount(duration, bucketWidth))
}

// Route is a path flows travel: Path holds its nodes, src to dst, Links the
// len(Path)-1 links between them. Hop h of a flow is Path[h], entered over
// Links[h-1] (the source, hop 0, over none).
type Route struct {
	Path, Links []int
}

// Collector accumulates flow records during an emulation run. One collector
// services all engines: a slot belongs to one node, nodes are owned by exactly
// one engine, so updates are data-race-free by construction.
type Collector struct {
	// routes are the caller's routes, aliased; flows holds every reserved
	// flow in reservation order, slots their hops, flow by flow and hop by hop
	// within a flow.
	routes []Route
	flows  []flowEntry
	slots  []slot
	// chunk and mtu are the packetization rule (ObserveAt).
	chunk, mtu int64
	// series is the bucketed per-node kernel-event load (by default in the
	// paper's fine-grained 2 s measurement interval).
	series *metrics.Series
}

// slot is what one (flow, hop) Record holds that nothing else gives: its
// flow entry gives FlowID, the flow's route Node, Src, Dst and InLink, and
// bytes give Packets.
type slot struct {
	bytes       int64
	first, last float64
}

// flowEntry is one reserved flow: it travels routes[route], and its slots run
// from base, one per node of the route.
type flowEntry struct {
	id          int
	base, route int32
}

// NewCollector creates a collector for numNodes nodes covering duration
// seconds (at most MaxBuckets buckets) at the given bucket width (2 s unless
// positive and finite), with room for flows reserved flows of slots hops in
// all, fewer than 2³¹. Flows travel routes, aliased, not copied, and send
// packet groups by ObserveAt's rule for the positive chunkBytes and mtu.
func NewCollector(numNodes int, routes []Route, chunkBytes, mtu int64, flows, slots int, duration, bucketWidth float64) *Collector {
	return &Collector{
		routes: routes,
		flows:  make([]flowEntry, 0, flows),
		slots:  make([]slot, 0, slots),
		chunk:  chunkBytes,
		mtu:    mtu,
		series: newSeries(numNodes, duration, bucketWidth),
	}
}

// Reserve adds one slot per node of routes[route] for a flow and returns the
// flow's index, its position in reservation order: hop h of the flow is
// accounted by ObserveAt(flow, h, ...).
func (c *Collector) Reserve(flowID, route int) (flow int) {
	c.flows = append(c.flows, flowEntry{id: flowID, base: int32(len(c.slots)), route: int32(route)})
	for range c.routes[route].Path {
		c.slots = append(c.slots, slot{first: math.Inf(1), last: math.Inf(-1)})
	}
	return len(c.flows) - 1
}

// ObserveAt accounts a packet group of a reserved flow reaching node, the
// node at hop of its route, at time t. packets and node only feed the load
// series: the slot keeps the bytes, and a hop's packets are derived from them.
// That holds because every group a flow sends is either a full chunk of
// chunkBytes or the flow's one remainder, its size modulo chunkBytes, each cut
// into mtu-byte packets and a shorter last one. A hop's byte sum B then fixes
// its packets: (B / chunkBytes)·⌈chunkBytes/mtu⌉ + ⌈(B mod chunkBytes)/mtu⌉.
func (c *Collector) ObserveAt(flow, hop, node int, packets, bytes int64, t float64) {
	s := &c.slots[int(c.flows[flow].base)+hop]
	s.bytes += bytes
	if t < s.first {
		s.first = t
	}
	if t > s.last {
		s.last = t
	}
	c.series.Add(t, node, float64(packets))
}

// packets is the packet count of a slot's bytes, by ObserveAt's rule.
func (c *Collector) packets(bytes int64) int64 {
	return bytes/c.chunk*((c.chunk+c.mtu-1)/c.mtu) + (bytes%c.chunk+c.mtu-1)/c.mtu
}

// reached calls fn with the record of every slot traffic has reached, in
// reservation order: flow by flow, hop by hop.
func (c *Collector) reached(fn func(Record)) {
	for _, fl := range c.flows {
		r := &c.routes[fl.route]
		for h, node := range r.Path {
			s := &c.slots[int(fl.base)+h]
			if s.first > s.last {
				continue
			}
			inLink := -1
			if h > 0 {
				inLink = r.Links[h-1]
			}
			fn(Record{Node: node, FlowID: fl.id, Src: r.Path[0], Dst: r.Path[len(r.Path)-1], InLink: inLink,
				Packets: c.packets(s.bytes), Bytes: s.bytes, First: s.first, Last: s.last})
		}
	}
}

// Records returns the records traffic has reached, ordered by node, then
// reservation order (the flow's workload position, then hop).
func (c *Collector) Records() []Record {
	// A counting sort on node keeps reservation order within each node.
	next := make([]int, c.series.Nodes()+1)
	c.reached(func(r Record) { next[r.Node+1]++ })
	for n := 1; n < len(next); n++ {
		next[n] += next[n-1]
	}
	out := make([]Record, next[len(next)-1])
	c.reached(func(r Record) {
		out[next[r.Node]] = r
		next[r.Node]++
	})
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

// newSummary is an empty summary over the nodes of series.
func newSummary(series *metrics.Series) *Summary {
	return &Summary{LinkPackets: make(map[int]int64), NodePackets: make([]int64, series.Nodes()), NodeSeries: series}
}

// add accounts r's packets to its node and to its in-link.
func (s *Summary) add(r Record) {
	s.NodePackets[r.Node] += r.Packets
	if r.InLink >= 0 {
		s.LinkPackets[r.InLink] += r.Packets
	}
}

// Summarize aggregates the collector into per-link and per-node totals.
func (c *Collector) Summarize() *Summary {
	s := newSummary(c.series)
	c.reached(s.add)
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
// packets uniformly over its [First, Last] span at the given bucket width (2 s
// unless positive and finite) — the granularity information a NetFlow dump retains. Like a collector's, the
// series has at most MaxBuckets buckets whatever duration says.
func SummarizeRecords(records []Record, numNodes int, duration, bucketWidth float64) *Summary {
	s := newSummary(newSeries(numNodes, duration, bucketWidth))
	bucketWidth, buckets := s.NodeSeries.BucketWidth, s.NodeSeries.Buckets()
	for _, r := range records {
		if r.Node < 0 || r.Node >= numNodes {
			continue
		}
		s.add(r)
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
