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
// (32 warmed rows). Flat at 10⁵ nodes is the
// 4·n² closed form, not a build — the table would need ~40 GB.
var memrouteBytes = []struct {
	topology   string
	nodes      int
	flat, lazy int64
}{
	{"Campus", 60, 14400, 3420},
	{"TeraGrid", 177, 125316, 7965},
	{"Brite-large", 564, 1272384, 81780},
	{"ScaleFree-100k", 100200, 40160160000, 14529000},
}

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
		// Flat stores one dense n×n array of int32 next links.
		flat = 4 * int64(n) * int64(n)
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
// flat model by at least 100×.
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
		if lazy >= flat {
			t.Errorf("%s: not sub-quadratic — flat %d, lazy %d", want.topology, flat, lazy)
		}
		if large && lazy >= flat/100 {
			t.Errorf("10⁵ nodes: the lazy oracle must undercut flat 100× — flat %d, lazy %d", flat, lazy)
		}
	}
}
