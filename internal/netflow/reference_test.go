package netflow

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/metrics"
)

// referenceCollector is the map-keyed collector the slot store replaced, kept
// verbatim (f900919, renamed) as the oracle of TestCollectorMatchesReference:
// records keyed by (node, flow, inlink), created on first observation.
type referenceCollector struct {
	BucketWidth float64
	// perNode[n] maps flow key to the record index in records[n].
	perNode []map[flowKey]int
	records [][]Record
	// series is the bucketed per-node kernel-event load.
	series *metrics.Series
}

type flowKey struct {
	flow   int
	inLink int
}

func newReferenceCollector(numNodes int, duration, bucketWidth float64) *referenceCollector {
	if bucketWidth <= 0 {
		bucketWidth = 2
	}
	buckets := int(duration/bucketWidth) + 1
	if buckets < 1 {
		buckets = 1
	}
	c := &referenceCollector{
		BucketWidth: bucketWidth,
		perNode:     make([]map[flowKey]int, numNodes),
		records:     make([][]Record, numNodes),
		series:      metrics.NewSeries(bucketWidth, numNodes, buckets),
	}
	for n := range c.perNode {
		c.perNode[n] = make(map[flowKey]int)
	}
	return c
}

// Observe accounts packets of a flow passing through node at time t having
// arrived over inLink (-1 at the flow source).
func (c *referenceCollector) Observe(node, flowID, src, dst, inLink int, packets, bytes int64, t float64) {
	key := flowKey{flow: flowID, inLink: inLink}
	idx, ok := c.perNode[node][key]
	if !ok {
		idx = len(c.records[node])
		c.records[node] = append(c.records[node], Record{
			Node: node, FlowID: flowID, Src: src, Dst: dst, InLink: inLink,
			First: t, Last: t,
		})
		c.perNode[node][key] = idx
	}
	r := &c.records[node][idx]
	r.Packets += packets
	r.Bytes += bytes
	if t < r.First {
		r.First = t
	}
	if t > r.Last {
		r.Last = t
	}
	c.series.Add(t, node, float64(packets))
}

// Records returns all accumulated records in deterministic order (node, then
// insertion order).
func (c *referenceCollector) Records() []Record {
	var out []Record
	for n := range c.records {
		out = append(out, c.records[n]...)
	}
	return out
}

func (c *referenceCollector) Summarize() *Summary {
	s := &Summary{
		LinkPackets: make(map[int]int64),
		NodePackets: make([]int64, len(c.records)),
		NodeSeries:  c.series,
	}
	for n := range c.records {
		for _, r := range c.records[n] {
			s.NodePackets[n] += r.Packets
			if r.InLink >= 0 {
				s.LinkPackets[r.InLink] += r.Packets
			}
		}
	}
	return s
}

// sortedRecords orders records by their key, so two stores can be compared as
// multisets whatever order each emits.
func sortedRecords(recs []Record) []Record {
	out := append([]Record{}, recs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.FlowID != b.FlowID {
			return a.FlowID < b.FlowID
		}
		return a.InLink < b.InLink
	})
	return out
}

// sameAccounting fails unless the slot store and the keyed collector report
// the same records (as multisets), summary and series.
func sameAccounting(t *testing.T, when string, c *Collector, ref *referenceCollector) {
	t.Helper()
	if got, want := sortedRecords(c.Records()), sortedRecords(ref.Records()); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: records differ (%d, the keyed collector has %d):\n slot  %+v\n keyed %+v", when, len(got), len(want), got, want)
	}
	if got, want := c.Summarize(), ref.Summarize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Summarize differs:\n slot  %+v\n keyed %+v", when, got, want)
	}
	if !reflect.DeepEqual(c.Series(), ref.series) {
		t.Fatalf("%s: Series differs", when)
	}
}

// TestCollectorMatchesReference drives the slot store and the keyed collector
// it replaced with the same observation streams — random loop-free routes over
// a shared link numbering, some shared by several flows, chunks that are
// dropped part-way along their route (so some slots are never reached), flows
// that never start, out-of-order timestamps — in two phases. The stores must
// agree after each. Every stream has the emulator's shape, which the slot
// store derives packet counts from: a flow sends full chunks and at most one
// remainder, in any order. The emulator-driven half is
// emu.TestProfileMatchesKeyedCollector.
func TestCollectorMatchesReference(t *testing.T) {
	const chunk, mtu = 16 << 10, 1500
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const nodes, duration = 12, 40.0
		var routes []Route
		for r := 0; r < 20; r++ {
			path := rng.Perm(nodes)[:1+rng.Intn(6)]
			links := make([]int, len(path)-1)
			for h := range links {
				a, b := path[h], path[h+1]
				if a > b {
					a, b = b, a
				}
				links[h] = a*nodes + b // one id per undirected link
			}
			routes = append(routes, Route{Path: path, Links: links})
		}
		type flow struct {
			id, idx, route int
			groups         []int64 // the packet groups it has yet to send, in bytes
		}
		var flows []*flow
		hops := 0
		for id := 0; id < 30; id++ {
			f := &flow{id: id, route: rng.Intn(len(routes))}
			size := 1 + rng.Int63n(8*chunk)
			for ; size >= chunk; size -= chunk {
				f.groups = append(f.groups, chunk)
			}
			if size > 0 {
				f.groups = append(f.groups, size)
			}
			rng.Shuffle(len(f.groups), func(i, j int) { f.groups[i], f.groups[j] = f.groups[j], f.groups[i] })
			flows = append(flows, f)
			hops += len(routes[f.route].Path)
		}
		c := NewCollector(nodes, routes, chunk, mtu, len(flows), hops, duration, 2)
		ref := newReferenceCollector(nodes, duration, 2)
		for _, f := range flows {
			f.idx = c.Reserve(f.id, f.route)
		}
		// observe sends up to n packet groups, each from its flow's source to
		// a random reach; flows 25.. never start.
		observe := func(n int) {
			for ; n > 0; n-- {
				var live []*flow
				for _, f := range flows[:25] {
					if len(f.groups) > 0 {
						live = append(live, f)
					}
				}
				if len(live) == 0 {
					return
				}
				f := live[rng.Intn(len(live))]
				bytes := f.groups[0]
				f.groups = f.groups[1:]
				packets := (bytes + mtu - 1) / mtu
				path, links := routes[f.route].Path, routes[f.route].Links
				t0 := rng.Float64() * (duration + 4) // past the last bucket too
				for h, reach := 0, rng.Intn(len(path)); h <= reach; h++ {
					inLink := -1
					if h > 0 {
						inLink = links[h-1]
					}
					at := t0 + 0.01*float64(h)
					c.ObserveAt(f.idx, h, path[h], packets, bytes, at)
					ref.Observe(path[h], f.id, path[0], path[len(path)-1], inLink, packets, bytes, at)
				}
			}
		}
		sameAccounting(t, "before any traffic", c, ref)
		observe(60)
		sameAccounting(t, "first phase", c, ref)

		observe(80)
		sameAccounting(t, "final phase", c, ref)

		// The slot store's order is (node, workload position, hop).
		recs := c.Records()
		pos := func(r Record) int { return r.Node*len(flows) + r.FlowID } // ids are positions here; a loop-free route visits a node once
		if !sort.SliceIsSorted(recs, func(i, j int) bool { return pos(recs[i]) < pos(recs[j]) }) {
			t.Fatalf("seed %d: records are not in (node, workload position) order", seed)
		}
	}
}

// TestSharedFlowIDSplitsRecords: two flows with one FlowID over the same
// route keep one record per flow where the keyed collector merged them; the
// sums, and so the summary, are the merged record's.
func TestSharedFlowIDSplitsRecords(t *testing.T) {
	path, links := []int{0, 1, 2}, []int{5, 6}
	c := NewCollector(3, []Route{{Path: path, Links: links}}, 15000, 1500, 2, 6, 10, 2)
	ref := newReferenceCollector(3, 10, 2)
	a, b := c.Reserve(7, 0), c.Reserve(7, 0)
	for h, node := range path {
		inLink := -1
		if h > 0 {
			inLink = links[h-1]
		}
		c.ObserveAt(a, h, node, 3, 4500, 1)
		c.ObserveAt(b, h, node, 5, 7500, 4)
		ref.Observe(node, 7, 0, 2, inLink, 3, 4500, 1)
		ref.Observe(node, 7, 0, 2, inLink, 5, 7500, 4)
	}
	recs, merged := c.Records(), ref.Records()
	if len(recs) != 6 || len(merged) != 3 {
		t.Fatalf("%d slot records and %d keyed records, want 6 and 3", len(recs), len(merged))
	}
	for i, m := range merged {
		x, y := recs[2*i], recs[2*i+1]
		if x.Packets+y.Packets != m.Packets || x.Bytes+y.Bytes != m.Bytes || x.First != m.First || y.Last != m.Last {
			t.Errorf("node %d: %+v + %+v is not the merged %+v", m.Node, x, y, m)
		}
	}
	if !reflect.DeepEqual(c.Summarize(), ref.Summarize()) {
		t.Error("Summarize differs when two flows share an id")
	}
}
