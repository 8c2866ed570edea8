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
// a shared link numbering, chunks that are dropped part-way along their route
// (so some slots are never reached), flows that never start, out-of-order
// timestamps — in two phases. The stores must agree after each. The
// emulator-driven half is emu.TestProfileMatchesKeyedCollector.
func TestCollectorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const nodes, duration = 12, 40.0
		type flow struct {
			id, idx     int
			path, links []int
		}
		var flows []flow
		hops := 0
		for id := 0; id < 30; id++ {
			path := rng.Perm(nodes)[:1+rng.Intn(6)]
			links := make([]int, len(path)-1)
			for h := range links {
				a, b := path[h], path[h+1]
				if a > b {
					a, b = b, a
				}
				links[h] = a*nodes + b // one id per undirected link
			}
			flows = append(flows, flow{id: id, path: path, links: links})
			hops += len(path)
		}
		c := NewCollector(nodes, len(flows), hops, duration, 2)
		ref := newReferenceCollector(nodes, duration, 2)
		for i := range flows {
			flows[i].idx = c.Reserve(flows[i].id, flows[i].path, flows[i].links)
		}
		// observe sends n chunks, each from its flow's source to a random
		// reach; flows 25.. never start.
		observe := func(n int) {
			for ; n > 0; n-- {
				f := flows[rng.Intn(25)]
				packets := int64(1 + rng.Intn(44))
				t0 := rng.Float64() * (duration + 4) // past the last bucket too
				for h, reach := 0, rng.Intn(len(f.path)); h <= reach; h++ {
					inLink := -1
					if h > 0 {
						inLink = f.links[h-1]
					}
					at := t0 + 0.01*float64(h)
					c.ObserveAt(f.idx, h, packets, packets*1500, at)
					ref.Observe(f.path[h], f.id, f.path[0], f.path[len(f.path)-1], inLink, packets, packets*1500, at)
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
	c := NewCollector(3, 2, 6, 10, 2)
	ref := newReferenceCollector(3, 10, 2)
	a, b := c.Reserve(7, path, links), c.Reserve(7, path, links)
	for h, node := range path {
		inLink := -1
		if h > 0 {
			inLink = links[h-1]
		}
		c.ObserveAt(a, h, 3, 4500, 1)
		c.ObserveAt(b, h, 5, 7500, 4)
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
