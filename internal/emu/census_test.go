package emu

import (
	"runtime"
	"testing"

	"repro/internal/topogen"
	"repro/internal/traffic"
)

// setupCensus is what building a run's inputs allocates, as coefficients:
// network-build bytes per router and per link, and the route table's bytes
// per hop of a workload's distinct routes.
type setupCensus struct{ perRouter, perLink, perHop float64 }

// censusAt builds a ScaleFree network of the given routers and 100 hosts and
// measures its census. The workload is the same at every size: each host
// sends one flow to each of ten others, 1 000 flows on pairs of their own,
// and the route table is prepare's allocation with the workload less its
// allocation without it (so it holds the flows' own 20 B of state too).
func censusAt(t *testing.T, routers int) setupCensus {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nw, err := topogen.ScaleFree(topogen.ScaleFreeConfig{Routers: routers, Hosts: 100, LinksPerNewRouter: 2, Seed: 42})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	build := float64(after.TotalAlloc - before.TotalAlloc)
	hosts := nw.Hosts()
	w := traffic.Workload{Duration: 5}
	hops := 0
	for i, src := range hosts {
		for k := 1; k <= 10; k++ {
			dst := hosts[(i+7*k)%len(hosts)]
			w.Flows = append(w.Flows, traffic.Flow{ID: len(w.Flows), Src: src, Dst: dst, Start: 0.001 * float64(len(w.Flows)), Bytes: 1 << 20})
			hops += len(nw.RouteLinks(nw.SharedRouting(), src, dst)) // warms the oracle's columns, too
		}
	}
	cfg := Config{Network: nw, Routes: nw.SharedRouting(), Assignment: make([]int, nw.NumNodes()), NumEngines: 1, Workload: w}
	table := float64(prepareBytes(t, cfg))
	cfg.Workload = traffic.Workload{Duration: w.Duration}
	table -= float64(prepareBytes(t, cfg))
	c := setupCensus{perRouter: build / float64(routers), perLink: build / float64(len(nw.Links)), perHop: table / float64(hops)}
	t.Logf("%d routers, %d links: network build %.0f B (%.1f B a router, %.1f B a link); route table %.0f B for %d hops (%.1f B a hop)",
		routers, len(nw.Links), build, c.perRouter, c.perLink, table, hops, c.perHop)
	return c
}

// TestSetupAllocationCensus records what the set-up that precedes a run's
// first window allocates per router, per link and per route hop, on ScaleFree
// networks of 10³ and 10⁴ routers (the 10⁵ point is
// core.TestMemoryScalableRoutingEndToEnd's log). It fails when a coefficient
// rises more than 10 % above its recorded value, or when it rises more than
// 10 % from 10³ to 10⁴ routers: set-up that grows faster than linearly. The
// recorded values are the 10⁴ measurements: 293.0 B a router and 145.8 B a
// link since generators sized the network with Grow, and 13.0 B a hop since
// prepare allocates the route slab and its offsets once at their final size
// (24.8 B at f748697, when both grew by append). At 1cfb53e, when Nodes and
// Links grew by append and each pair paid a RoutePath allocation, they were
// 902.0, 448.8 and 44.9, and the build grew from 647.0 B a router at 10³.
func TestSetupAllocationCensus(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are the race detector's under -race")
	}
	recorded := setupCensus{perRouter: 293.0, perLink: 145.8, perHop: 13.0}
	small, large := censusAt(t, 1_000), censusAt(t, 10_000)
	for _, c := range []struct {
		name                   string
		small, large, recorded float64
	}{
		{"network-build bytes per router", small.perRouter, large.perRouter, recorded.perRouter},
		{"network-build bytes per link", small.perLink, large.perLink, recorded.perLink},
		{"route-table bytes per hop", small.perHop, large.perHop, recorded.perHop},
	} {
		if c.large > 1.1*c.recorded {
			t.Errorf("%s: %.1f at 10⁴ routers, recorded %.1f", c.name, c.large, c.recorded)
		}
		if c.large > 1.1*c.small {
			t.Errorf("%s: %.1f at 10³ routers, %.1f at 10⁴: faster than linear", c.name, c.small, c.large)
		}
	}
}
