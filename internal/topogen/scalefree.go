package topogen

import (
	"fmt"
	"math/rand"

	"repro/internal/netgraph"
)

// ScaleFreeConfig parameterizes the linear-time scale-free generator.
type ScaleFreeConfig struct {
	// Routers is the router count.
	Routers int
	// Hosts is the host count (hosts attach to uniformly random routers).
	Hosts int
	// LinksPerNewRouter is the Barabási–Albert attachment degree m
	// (default 2, like Brite).
	LinksPerNewRouter int
	// Seed drives all random choices.
	Seed int64
}

// ScaleFree generates a Barabási–Albert router topology in O(n·m) time — the
// scaling companion to Brite, whose degree-prefix sampling is O(n) per pick
// and quadratic overall. Preferential attachment is implemented with the
// repeated-endpoints trick: every link appends both endpoints to a flat
// list, so a uniform draw from the list IS a degree-proportional draw.
// Latencies are drawn from the same continental range Brite's plane distance
// produces ([0.5ms, 20ms]) and bandwidths from the same 2003 transit tiers,
// but without the O(n) coordinate bookkeeping per link. All routers share
// one AS; past 8192 core nodes the route oracle's byte budget holds fewer
// columns than the network has destinations (netgraph.DefaultLazyColumns).
func ScaleFree(cfg ScaleFreeConfig) (*netgraph.Network, error) {
	if cfg.Routers < 2 {
		return nil, fmt.Errorf("topogen: ScaleFree needs at least 2 routers, got %d", cfg.Routers)
	}
	if cfg.LinksPerNewRouter < 1 {
		cfg.LinksPerNewRouter = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nw := netgraph.New(fmt.Sprintf("ScaleFree-%dr%dh", cfg.Routers, cfg.Hosts))
	// The links, as Brite's: a seed clique, m for each later router, one a host.
	m, seedN := cfg.LinksPerNewRouter, min(cfg.LinksPerNewRouter+1, cfg.Routers)
	nw.Grow(cfg.Routers+cfg.Hosts, seedN*(seedN-1)/2+(cfg.Routers-seedN)*m+cfg.Hosts)
	const as = 1

	latency := func() float64 {
		return 0.5*ms + rng.Float64()*19.5*ms
	}

	routers := make([]int, cfg.Routers)
	for i := range routers {
		routers[i] = nw.AddRouter(fmt.Sprintf("r%d", i), as)
	}

	// endpoints holds every link endpoint once; uniform sampling from it is
	// degree-proportional sampling.
	endpoints := make([]int, 0, 2*m*cfg.Routers)
	addLink := func(i, j int) {
		nw.AddLink(routers[i], routers[j], transitBandwidth(rng), latency())
		endpoints = append(endpoints, i, j)
	}

	// Seed clique of m+1 routers.
	for i := 0; i < seedN; i++ {
		for j := i + 1; j < seedN; j++ {
			addLink(i, j)
		}
	}

	// Incremental attachment: each new router (i > m) draws m distinct
	// targets from the endpoint list (degree-proportional), falling back to a
	// uniform draw after repeated collisions so dense early graphs cannot stall.
	chosen := make(map[int]bool, m)
	for i := seedN; i < cfg.Routers; i++ {
		clear(chosen)
		// Sample from the endpoint list as it stood before router i started
		// attaching, so i can never draw itself into a self-loop.
		limit := len(endpoints)
		for len(chosen) < m {
			t := endpoints[rng.Intn(limit)]
			if chosen[t] {
				t = rng.Intn(i)
				if chosen[t] {
					continue
				}
			}
			chosen[t] = true
			addLink(i, t)
		}
	}

	for h := 0; h < cfg.Hosts; h++ {
		id := nw.AddHost(fmt.Sprintf("h%d", h), as)
		nw.AddLink(id, routers[rng.Intn(cfg.Routers)], 100*Mbps, 0.5*ms)
	}
	return nw, nil
}
