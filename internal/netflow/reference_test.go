package netflow

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// Record is one (router, flow) accounting entry of the reference collector:
// the per-flow record the paper's routers dump.
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
	// First and Last are the observation window in virtual seconds.
	First, Last float64
}

// referenceCollector is the map-keyed per-flow record collector, kept
// verbatim (f900919, renamed) as the oracle of TestCollectorMatchesReference:
// records keyed by (node, flow, inlink), created on first observation. Its
// summary is the paper's offline aggregation of the dump files, written into
// one entry per link of a network of the given link count.
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

func (c *referenceCollector) Summarize(links int) *Summary {
	s := &Summary{
		LinkPackets: make([]int64, links),
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

// TestCollectorMatchesReference drives the collector and the keyed per-flow
// record collector with the same observation streams — random loop-free
// routes over a shared link numbering, some shared by several flows and some
// travelled both ways, flows that share an id, packet groups dropped part-way
// along their route, flows that never start, timestamps out of order and past
// the last bucket — in two phases. Their summaries and series must agree
// after each. The emulator-driven half is emu.TestProfileMatchesKeyedCollector.
func TestCollectorMatchesReference(t *testing.T) {
	const nodes, duration = 12, 40.0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type route struct{ path, links, slots []int }
		var routes []route
		for r := 0; r < 20; r++ {
			path := rng.Perm(nodes)[:1+rng.Intn(6)]
			rt := route{path: path, links: make([]int, len(path)-1), slots: make([]int, len(path))}
			rt.slots[0] = -1
			for h := range rt.links {
				a, b := path[h], path[h+1]
				dir := 0
				if a > b {
					a, b, dir = b, a, 1 // sent from the link's larger end
				}
				rt.links[h] = a*nodes + b // one id per undirected link
				rt.slots[h+1] = 2*rt.links[h] + dir
			}
			routes = append(routes, rt)
		}
		type flow struct{ id, route, groups int }
		var flows []*flow
		for i := 0; i < 30; i++ {
			flows = append(flows, &flow{id: i % 27, route: rng.Intn(len(routes)), groups: 1 + rng.Intn(8)})
		}
		c := NewCollector(nodes, nodes*nodes, duration, 2)
		ref := newReferenceCollector(nodes, duration, 2)
		// observe sends up to n packet groups, each from its flow's source to
		// a random reach; flows 25.. never start.
		observe := func(n int) {
			for ; n > 0; n-- {
				var live []*flow
				for _, f := range flows[:25] {
					if f.groups > 0 {
						live = append(live, f)
					}
				}
				if len(live) == 0 {
					return
				}
				f := live[rng.Intn(len(live))]
				f.groups--
				packets := 1 + rng.Int63n(44)
				rt := routes[f.route]
				t0 := rng.Float64() * (duration + 4) // past the last bucket too
				for h, reach := 0, rng.Intn(len(rt.path)); h <= reach; h++ {
					inLink := -1
					if h > 0 {
						inLink = rt.links[h-1]
					}
					at := t0 + 0.01*float64(h)
					c.Observe(rt.path[h], rt.slots[h], packets, at)
					ref.Observe(rt.path[h], f.id, rt.path[0], rt.path[len(rt.path)-1], inLink, packets, packets*1500, at)
				}
			}
		}
		sameAccounting(t, "before any traffic", c, ref, nodes)
		observe(60)
		sameAccounting(t, "first phase", c, ref, nodes)
		observe(80)
		sameAccounting(t, "final phase", c, ref, nodes)
	}
}

// sameAccounting fails unless the collector and the keyed collector report
// the same summary: link and node totals and the series, over the nodes²
// link ids of TestCollectorMatchesReference's numbering.
func sameAccounting(t *testing.T, when string, c *Collector, ref *referenceCollector, nodes int) {
	t.Helper()
	if got, want := c.Summarize(), ref.Summarize(nodes*nodes); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Summarize differs:\n counters %+v\n keyed    %+v", when, got, want)
	}
}
