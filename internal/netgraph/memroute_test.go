package netgraph_test

// Memory-footprint gate for the route oracle. Every number here is a
// deterministic byte count, so the table is an exact-match regression gate:
// any change to the oracle's layout or the generators shows up as drift.
// After an intentional layout change, update the table from the current
// values the failure messages print.

import (
	"testing"

	"repro/internal/netgraph"
	"repro/internal/topogen"
)

// memrouteWarmRows is how many rows the gate warms (and caps), so the
// oracle's footprint is a fixed, deterministic number of rows.
const memrouteWarmRows = 32

// memrouteBytes is the committed footprint per topology with 32 warmed rows.
var memrouteBytes = []struct {
	topology string
	nodes    int
	lazy     int64
}{
	{"Campus", 60, 1940},
	{"TeraGrid", 177, 4473},
	{"Brite-large", 564, 37444},
	{"ScaleFree-100k", 100200, 14904200},
}

// allPairs100k is what storing every core row of ScaleFree-100k would take:
// the 4·k² + 8·n closed form (k = 100 000 core nodes, n = 100 200), ~40 GB.
const allPairs100k = 40000801600

// coreNodes lists the routing core: the nodes that are not leaves, a leaf
// being a node with one link whose other end has at least two.
func coreNodes(nw *netgraph.Network) []int {
	var core []int
	for v := range nw.NumNodes() {
		links := nw.IncidentLinks(v)
		if len(links) != 1 || len(nw.IncidentLinks(nw.Links[links[0]].Other(v))) < 2 {
			core = append(core, v)
		}
	}
	return core
}

// routeIndexBytes is the core mapping the oracle keeps beside its rows:
// a leaf's parent, and a core node's position or a leaf's access link, 4
// bytes each per node.
func routeIndexBytes(nw *netgraph.Network) int64 { return 8 * int64(nw.NumNodes()) }

func memrouteTopology(tb testing.TB, name string) *netgraph.Network {
	tb.Helper()
	if name == "ScaleFree-100k" {
		nw, err := topogen.ScaleFree(topogen.ScaleFreeConfig{
			Routers: 100_000, Hosts: 200, LinksPerNewRouter: 2, Seed: 42,
		})
		if err != nil {
			tb.Fatal(err)
		}
		return nw
	}
	return paperTopology(tb, name)
}

// memrouteMeasure returns the footprint of an oracle over nw holding
// memrouteWarmRows rows, after as many sources have been queried.
func memrouteMeasure(tb testing.TB, nw *netgraph.Network) int64 {
	tb.Helper()
	n := nw.NumNodes()
	l, err := netgraph.NewLazyRouting(nw, memrouteWarmRows)
	if err != nil {
		tb.Fatal(err)
	}
	for src := 0; src < min(memrouteWarmRows, n); src++ {
		l.NextLink(src, (src+1)%n)
	}
	return l.MemoryBytes()
}

// TestMemRouteBaseline is the drift check: the byte counts in memrouteBytes
// must exactly match what the current code produces, and the oracle must be
// sub-quadratic — on the 10⁵ topology 32 warmed rows must undercut storing
// every core row (allPairs100k) at least 100×.
func TestMemRouteBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 10⁵-router topology")
	}
	for _, want := range memrouteBytes {
		nw := memrouteTopology(t, want.topology)
		lazy := memrouteMeasure(t, nw)
		if n := nw.NumNodes(); n != want.nodes {
			t.Errorf("%s: drift — %d nodes, want %d", want.topology, n, want.nodes)
		}
		if lazy != want.lazy {
			t.Errorf("%s: drift — %d bytes, want %d", want.topology, lazy, want.lazy)
		}
		if want.topology != "ScaleFree-100k" {
			continue
		}
		k := int64(len(coreNodes(nw)))
		if all := 4*k*k + routeIndexBytes(nw); all != allPairs100k {
			t.Errorf("10⁵ nodes: drift — every core row would take %d bytes, want %d", all, int64(allPairs100k))
		}
		if lazy >= allPairs100k/100 {
			t.Errorf("10⁵ nodes: the oracle must undercut every core row 100× — %d of %d bytes", lazy, int64(allPairs100k))
		}
	}
}

// TestRouteMemoryIsCoreSized: the oracle stores next hops among the k core
// nodes only. Each row it caches costs 4·k bytes, leaf queries cache no rows
// of their own, and a cache holding every row costs 4·k² beside the index
// and the search scratch.
func TestRouteMemoryIsCoreSized(t *testing.T) {
	check := func(t *testing.T, nw *netgraph.Network) {
		t.Helper()
		n, core := nw.NumNodes(), coreNodes(nw)
		k := int64(len(core))
		lazy, err := netgraph.NewLazyRouting(nw, n)
		if err != nil {
			t.Fatal(err)
		}
		empty := lazy.MemoryBytes()
		// A core source needs a row toward another core node; a lone core
		// node answers its own leaves without one.
		for i := 0; len(core) > 1 && i < len(core); i++ {
			lazy.NextLink(core[i], core[(i+1)%len(core)])
			if got, want := lazy.MemoryBytes(), empty+int64(i+1)*4*k; got != want {
				t.Fatalf("%s: %d lazy rows cost %d bytes, want %d + %d·4·%d", nw.Name, i+1, got, empty, i+1, k)
			}
		}
		full := lazy.MemoryBytes()
		for src := range n {
			for dst := range n {
				lazy.NextLink(src, dst)
			}
		}
		if got := lazy.MemoryBytes(); got != full {
			t.Fatalf("%s: querying every pair grew the lazy cache from %d to %d bytes", nw.Name, full, got)
		}
		if k > 1 && full != empty+4*k*k {
			t.Fatalf("%s: every row costs %d bytes over the empty oracle's %d, want 4·%d²", nw.Name, full-empty, empty, k)
		}
	}
	for _, name := range []string{"Campus", "TeraGrid", "Brite", "Brite-large"} {
		t.Run(name, func(t *testing.T) { check(t, paperTopology(t, name)) })
	}
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 300; seed++ {
			check(t, oracleGraph(seed))
		}
	})
}
