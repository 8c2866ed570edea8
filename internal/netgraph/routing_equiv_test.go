package netgraph_test

// Oracle equivalence. The route oracle must answer every (src, dst) exactly
// as the full-graph row builder below does — the builder it used before
// leaves were cut out of Dijkstra — at any row capacity, on the paper's
// topologies and on random graphs shaped to break that cut.

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netgraph"
	"repro/internal/topogen"
)

func paperTopology(tb testing.TB, name string) *netgraph.Network {
	tb.Helper()
	nw, err := topogen.ByName(name, 42)
	if err != nil {
		tb.Fatal(err)
	}
	return nw
}

// refItem and refHeap are the oracle's frontier: container/heap under the
// same (distance, node) total order the production heap uses.
type refItem struct {
	node int
	dist float64
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// referenceRow is the full-graph row builder, kept as the oracle: Dijkstra
// from src over every node, leaves and hosts included, ties broken on the
// first-hop link ID. It returns src's next-hop row (-1 for src itself and
// for unreachable nodes) and its distances.
func referenceRow(nw *netgraph.Network, src int) (next []int, dist []float64) {
	n := nw.NumNodes()
	dist = make([]float64, n)
	next = make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		next[i] = -1
	}
	dist[src] = 0
	h := &refHeap{{node: src}}
	for h.Len() > 0 {
		v := heap.Pop(h).(refItem).node
		if done[v] {
			continue
		}
		done[v] = true
		for _, lid := range nw.IncidentLinks(v) {
			l := nw.Links[lid]
			u := l.Other(v)
			nd := dist[v] + l.Latency
			first := next[v]
			if v == src {
				first = lid
			}
			if nd < dist[u] || (nd == dist[u] && !done[u] && next[u] > first) {
				dist[u] = nd
				next[u] = first
				heap.Push(h, refItem{node: u, dist: nd})
			}
		}
	}
	next[src] = -1
	return next, dist
}

// oracleGraph draws a small random network built to stress the leaf cut:
// sparse router cores that may fall apart, parallel core links, hosts behind
// hosts (chains), hosts with two parallel access links (degree 2, so not
// leaves), isolated hosts, two-node components, and zero-latency links among
// repeated latencies, so distance ties are common.
func oracleGraph(seed int64) *netgraph.Network {
	rng := rand.New(rand.NewSource(seed))
	nw := netgraph.New(fmt.Sprintf("oracle-%d", seed))
	lat := func() float64 { return []float64{0, 0, 1e-3, 1e-3, 2e-3, 5e-3}[rng.Intn(6)] }
	routers := 1 + rng.Intn(12)
	for i := 0; i < routers; i++ {
		nw.AddRouter("r", 1+rng.Intn(2))
	}
	for e := rng.Intn(2*routers + 1); e > 0; e-- {
		a, b := rng.Intn(routers), rng.Intn(routers)
		if a == b {
			continue
		}
		nw.AddLink(a, b, 1e9, lat())
		if rng.Intn(5) == 0 {
			nw.AddLink(a, b, 1e9, lat())
		}
	}
	for h := rng.Intn(16); h > 0; h-- {
		id := nw.AddHost("h", 1)
		r := rng.Intn(routers)
		switch rng.Intn(6) {
		case 0: // behind any earlier node, hosts included: chains
			nw.AddLink(id, rng.Intn(id), 100e6, lat())
		case 1: // parallel access links
			nw.AddLink(id, r, 100e6, lat())
			nw.AddLink(id, r, 100e6, lat())
		case 2: // isolated, unless a later host chains onto it
		default:
			nw.AddLink(id, r, 100e6, lat())
		}
	}
	for c := rng.Intn(3); c > 0; c-- {
		a, b := nw.AddHost("p", 3), nw.AddHost("q", 3)
		nw.AddLink(a, b, 100e6, lat())
	}
	return nw
}

// TestNextLinkMatchesOracle: NextLink equals the full-graph reference on
// every (src, dst), leaf sources and leaf destinations included, on the four
// paper topologies and on 300 random graphs, for an oracle holding 1 row, 4
// rows and all k core rows (the shared oracle's capacity on these sizes).
// Below k, rows are evicted and rebuilt throughout.
func TestNextLinkMatchesOracle(t *testing.T) {
	check := func(t *testing.T, nw *netgraph.Network) {
		t.Helper()
		capacities := []int{1, 4, len(coreNodes(nw))}
		oracles := make([]*netgraph.LazyRouting, len(capacities))
		for i, rows := range capacities {
			var err error
			if oracles[i], err = netgraph.NewLazyRouting(nw, rows); err != nil {
				t.Fatal(err)
			}
		}
		for src := 0; src < nw.NumNodes(); src++ {
			want, _ := referenceRow(nw, src)
			for dst, w := range want {
				for i, r := range oracles {
					if got := r.NextLink(src, dst); got != w {
						t.Fatalf("%s: NextLink(%d,%d) = %d at capacity %d, reference %d",
							nw.Name, src, dst, got, capacities[i], w)
					}
				}
			}
		}
	}
	for _, name := range []string{"Campus", "TeraGrid", "Brite", "Brite-large"} {
		t.Run(name, func(t *testing.T) { check(t, paperTopology(t, name)) })
	}
	t.Run("random", func(t *testing.T) {
		var shapes [5]int // host chains, parallel access links, zero latency, pairs, unreachable pairs
		for seed := int64(1); seed <= 300; seed++ {
			nw := oracleGraph(seed)
			check(t, nw)
			for v, node := range nw.Nodes {
				links := nw.IncidentLinks(v)
				if node.Kind == netgraph.Host && len(links) == 1 {
					if u := nw.Links[links[0]].Other(v); nw.Nodes[u].Kind == netgraph.Host {
						shapes[0]++
						if len(nw.IncidentLinks(u)) == 1 {
							shapes[3]++
						}
					}
				}
				if len(links) == 2 && nw.Links[links[0]].Other(v) == nw.Links[links[1]].Other(v) {
					shapes[1]++
				}
			}
			for _, l := range nw.Links {
				if l.Latency == 0 {
					shapes[2]++
				}
			}
			if next, _ := referenceRow(nw, 0); slices.Contains(next[1:], -1) {
				shapes[4]++
			}
		}
		for i, c := range shapes {
			if c == 0 {
				t.Errorf("the random graphs miss shape %d of (host chains, parallel access links, zero latency, pairs, unreachable pairs)", i)
			}
		}
	})
}

// TestLazyMatchesFlatOnPaperTopologies: on the paper topologies (17 to 200
// core nodes), an 8-row oracle, which evicts and rebuilds rows throughout,
// answers every (src, dst) as one holding every core row does — the flat
// all-pairs table's successor, which never evicts.
func TestLazyMatchesFlatOnPaperTopologies(t *testing.T) {
	for _, name := range []string{"Campus", "TeraGrid", "Brite", "Brite-large"} {
		t.Run(name, func(t *testing.T) {
			nw := paperTopology(t, name)
			n := nw.NumNodes()
			flat, err := netgraph.NewLazyRouting(nw, len(coreNodes(nw)))
			if err != nil {
				t.Fatal(err)
			}
			lazy, err := netgraph.NewLazyRouting(nw, 8)
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if f, l := flat.NextLink(src, dst), lazy.NextLink(src, dst); f != l {
						t.Fatalf("NextLink(%d,%d): all rows %d, 8 rows %d", src, dst, f, l)
					}
				}
			}
		})
	}
}

// TestEveryBackendRoutesShortest keeps the route oracle to one semantics:
// the shared oracle must route each host pair over a path as long as the
// full-graph reference distance (to 1e-12, relative: the reference sums the
// same latencies in another order), on the paper topologies and on a
// 2100-node scale-free network. An oracle that trades path length for table
// size (the retired two-level "hier" tables stretched routes 4.6× at 10⁴
// routers) emulates a different network.
func TestEveryBackendRoutesShortest(t *testing.T) {
	check := func(t *testing.T, nw *netgraph.Network) {
		hosts := nw.Hosts()
		r := nw.SharedRouting()
		for i, src := range hosts {
			_, dist := referenceRow(nw, src)
			for _, dst := range hosts[i+1:] {
				var got float64
				for _, l := range nw.RouteLinks(r, src, dst) {
					got += nw.Links[l].Latency
				}
				if want := dist[dst]; math.Abs(got-want) > 1e-12*want {
					t.Fatalf("route %d->%d is %g s, shortest %g s", src, dst, got, want)
				}
			}
		}
	}
	for _, name := range []string{"Campus", "TeraGrid", "Brite", "Brite-large"} {
		t.Run(name, func(t *testing.T) { check(t, paperTopology(t, name)) })
	}
	t.Run("ScaleFree-2k", func(t *testing.T) {
		nw, err := topogen.ScaleFree(topogen.ScaleFreeConfig{
			Routers: 2000, Hosts: 100, LinksPerNewRouter: 2, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, nw)
	})
}

// loopingOracle routes every node toward a and a itself toward b, so a walk
// bounces between a and its neighbour forever.
type loopingOracle struct {
	netgraph.Routing
	a, b int
}

func (o loopingOracle) NextLink(src, dst int) int {
	if src == o.a {
		return o.Routing.NextLink(o.a, o.b)
	}
	return o.Routing.NextLink(src, o.a)
}

// TestRouteWalkersAgree: RouteLinks is a view of the RoutePath walk, and
// that walk is what following NextLink hop by hop gives — on every host pair
// of the paper topologies, for src == dst, for a host no link reaches, and
// under an oracle that loops (both return nil and return).
func TestRouteWalkersAgree(t *testing.T) {
	for _, name := range []string{"Campus", "TeraGrid", "Brite"} {
		t.Run(name, func(t *testing.T) {
			nw := paperTopology(t, name)
			island := nw.AddHost("island", 1)
			rt := nw.SharedRouting()
			hosts := nw.Hosts()
			for _, src := range hosts {
				for _, dst := range hosts {
					path, links := nw.RoutePath(rt, src, dst)
					if l := nw.RouteLinks(rt, src, dst); !slices.Equal(l, links) {
						t.Fatalf("%d -> %d: RouteLinks %v; RoutePath %v, %v", src, dst, l, path, links)
					}
					switch {
					case src == dst:
						if !slices.Equal(path, []int{src}) || links != nil {
							t.Fatalf("%d -> itself: path %v, links %v", src, path, links)
						}
					case src == island || dst == island:
						if path != nil || links != nil {
							t.Fatalf("%d -> %d crosses no link, got path %v, links %v", src, dst, path, links)
						}
					default:
						// The reference walk: one oracle query per hop.
						cur := src
						for i, lid := range links {
							if path[i] != cur || lid != rt.NextLink(cur, dst) {
								t.Fatalf("%d -> %d: hop %d is node %d over link %d, the oracle says node %d over link %d",
									src, dst, i, path[i], lid, cur, rt.NextLink(cur, dst))
							}
							cur = nw.Links[lid].Other(cur)
						}
						if len(path) != len(links)+1 || path[len(links)] != dst || cur != dst {
							t.Fatalf("%d -> %d: path %v over links %v does not end at the destination", src, dst, path, links)
						}
					}
				}
			}
			src, dst := hosts[0], hosts[1]
			if allocs := testing.AllocsPerRun(10, func() { nw.RoutePath(rt, src, dst) }); allocs > 2 {
				t.Errorf("RoutePath makes %.0f allocations per call, want at most 2", allocs)
			}
			loop := loopingOracle{rt, src, dst}
			if path, links := nw.RoutePath(loop, src, dst); path != nil || links != nil || nw.RouteLinks(loop, src, dst) != nil {
				t.Errorf("a looping oracle yields path %v, links %v, want nil", path, links)
			}
		})
	}
}
