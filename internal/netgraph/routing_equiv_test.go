package netgraph_test

// Cross-backend equivalence on the paper's experiment topologies: the lazy
// oracle must answer byte-identically to the flat table for every ordered
// pair (same dijkstraRow builder, same tie-breaks), and the clustered
// two-level tables must stay loop-free and never beat the true shortest path.

import (
	"math"
	"slices"
	"testing"

	"repro/internal/netgraph"
)

func TestLazyMatchesFlatOnPaperTopologies(t *testing.T) {
	for _, name := range []string{"Campus", "TeraGrid", "Brite", "Brite-large"} {
		t.Run(name, func(t *testing.T) {
			nw := paperTopology(t, name)
			n := nw.NumNodes()
			flat := nw.BuildRoutingTable()
			lazy, err := netgraph.NewLazyRouting(nw, 32)
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if f, l := flat.NextLink(src, dst), lazy.NextLink(src, dst); f != l {
						t.Fatalf("NextLink(%d,%d): flat %d, lazy %d", src, dst, f, l)
					}
					fd, ld := flat.Distance(src, dst), lazy.Distance(src, dst)
					if fd != ld && !(math.IsInf(fd, 1) && math.IsInf(ld, 1)) {
						t.Fatalf("Distance(%d,%d): flat %g, lazy %g", src, dst, fd, ld)
					}
				}
			}
		})
	}
}

func TestClusteredRoutingOnPaperTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("all-pairs walks on the full topologies")
	}
	// Brite is single-AS, the case the auto-clustered tables exist for;
	// Campus exercises the nearly-tree shape.
	for _, name := range []string{"Campus", "Brite"} {
		t.Run(name, func(t *testing.T) {
			nw := paperTopology(t, name)
			n := nw.NumNodes()
			flat := nw.BuildRoutingTable()
			hier, err := nw.BuildClusteredRouting(netgraph.DefaultClusters(n))
			if err != nil {
				t.Fatal(err)
			}
			if hier.MemoryBytes() >= flat.MemoryBytes() {
				t.Fatalf("clustered table (%d B) not smaller than flat (%d B)",
					hier.MemoryBytes(), flat.MemoryBytes())
			}
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					path := nw.Route(hier, src, dst)
					if path == nil || len(path) > n {
						t.Fatalf("clustered route %d->%d broken or looping: %d hops", src, dst, len(path))
					}
					if hier.Distance(src, dst) < flat.Distance(src, dst)-1e-12 {
						t.Fatalf("clustered distance beats shortest path for %d->%d", src, dst)
					}
				}
			}
		})
	}
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

// TestRouteWalkersAgree: Route and RouteLinks are views of the one RoutePath
// walk, and that walk is what following NextLink hop by hop gives — on every
// host pair of the paper topologies, for src == dst, for a host no link
// reaches, and under an oracle that loops (all three return nil and return).
func TestRouteWalkersAgree(t *testing.T) {
	for _, name := range []string{"Campus", "TeraGrid", "Brite"} {
		t.Run(name, func(t *testing.T) {
			nw := paperTopology(t, name)
			island := nw.AddHost("island", 1)
			rt := nw.BuildRoutingTable()
			hosts := nw.Hosts()
			for _, src := range hosts {
				for _, dst := range hosts {
					path, links := nw.RoutePath(rt, src, dst)
					if p, l := nw.Route(rt, src, dst), nw.RouteLinks(rt, src, dst); !slices.Equal(p, path) || !slices.Equal(l, links) {
						t.Fatalf("%d -> %d: Route %v, RouteLinks %v; RoutePath %v, %v", src, dst, p, l, path, links)
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
			if path, links := nw.RoutePath(loop, src, dst); path != nil || links != nil ||
				nw.Route(loop, src, dst) != nil || nw.RouteLinks(loop, src, dst) != nil {
				t.Errorf("a looping oracle yields path %v, links %v, want nil", path, links)
			}
		})
	}
}
