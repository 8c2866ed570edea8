package netgraph_test

// Memory-footprint gate for the routing oracles. Every number here is a
// deterministic byte count, so the table is an exact-match regression gate:
// any change to the oracle layouts or the generators shows
// up as drift. After an intentional layout change, update the table from the
// current values the failure messages print.

import (
	"testing"

	"repro/internal/netgraph"
	"repro/internal/topogen"
)

// memrouteWarmRows is how many lazy rows the gate warms (and caps), so the
// lazy oracle's footprint is a fixed, deterministic number of rows.
const memrouteWarmRows = 32

// memrouteBytes is the committed footprint per topology: flat table vs lazy
// (32 warmed rows). Flat at 10⁵ nodes is the 4·k² + 8·n closed form, not a
// build — the table would need ~40 GB.
var memrouteBytes = []struct {
	topology   string
	nodes      int
	flat, lazy int64
}{
	{"Campus", 60, 1636, 1940},
	{"TeraGrid", 177, 4332, 4473},
	{"Brite-large", 564, 164512, 37444},
	{"ScaleFree-100k", 100200, 40000801600, 14904200},
}

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

// routeIndexBytes is the core mapping both oracles keep beside their rows:
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

// memrouteMeasure returns the flat and lazy footprints of nw.
func memrouteMeasure(tb testing.TB, nw *netgraph.Network, flatModel bool) (flat, lazy int64) {
	tb.Helper()
	n := nw.NumNodes()
	if flatModel {
		// Flat stores one dense k×k array of int32 next links over the core.
		k := int64(len(coreNodes(nw)))
		flat = 4*k*k + routeIndexBytes(nw)
	} else {
		flat = nw.BuildRoutingTable().MemoryBytes()
	}
	l, err := netgraph.NewLazyRouting(nw, memrouteWarmRows)
	if err != nil {
		tb.Fatal(err)
	}
	for src := 0; src < min(memrouteWarmRows, n); src++ {
		l.NextLink(src, (src+1)%n)
	}
	return flat, l.MemoryBytes()
}

// TestMemRouteBaseline is the drift check: the byte counts in memrouteBytes
// must exactly match what the current code produces, and the lazy oracle
// must actually be sub-quadratic — on the 10⁵ topology it must undercut the
// flat model by at least 100×. Lazy undercuts flat only where the warmed
// rows are fewer than the k core rows: the whole flat table of Campus
// (k = 17) or TeraGrid (k = 27) costs less than 32 warmed lazy rows.
func TestMemRouteBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 10⁵-router topology")
	}
	for _, want := range memrouteBytes {
		nw := memrouteTopology(t, want.topology)
		large := want.topology == "ScaleFree-100k"
		flat, lazy := memrouteMeasure(t, nw, large) // never build 40 GB
		if n := nw.NumNodes(); n != want.nodes {
			t.Errorf("%s: drift — %d nodes, want %d", want.topology, n, want.nodes)
		}
		if flat != want.flat || lazy != want.lazy {
			t.Errorf("%s: drift — flat/lazy bytes %d/%d, want %d/%d",
				want.topology, flat, lazy, want.flat, want.lazy)
		}

		// The ordering the redesign exists for.
		if memrouteWarmRows < len(coreNodes(nw)) && lazy >= flat {
			t.Errorf("%s: not sub-quadratic — flat %d, lazy %d", want.topology, flat, lazy)
		}
		if large && lazy >= flat/100 {
			t.Errorf("10⁵ nodes: the lazy oracle must undercut flat 100× — flat %d, lazy %d", flat, lazy)
		}
	}
}

// TestRouteMemoryIsCoreSized: both oracles store next hops among the k core
// nodes only. The flat table is 4·k² bytes plus the index; each row the lazy
// oracle caches costs 4·k, and leaf queries cache no rows of their own.
func TestRouteMemoryIsCoreSized(t *testing.T) {
	check := func(t *testing.T, nw *netgraph.Network) {
		t.Helper()
		n, core := nw.NumNodes(), coreNodes(nw)
		k := int64(len(core))
		if got, want := nw.BuildRoutingTable().MemoryBytes(), 4*k*k+routeIndexBytes(nw); got != want {
			t.Fatalf("%s: flat table %d bytes, want 4·%d² + %d", nw.Name, got, k, routeIndexBytes(nw))
		}
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
