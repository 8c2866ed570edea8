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
// one AS; past netgraph.AutoFlatMaxNodes nodes the automatic routing policy
// serves it with the lazy oracle.
func ScaleFree(cfg ScaleFreeConfig) (*netgraph.Network, error) {
	if cfg.Routers < 2 {
		return nil, fmt.Errorf("topogen: ScaleFree needs at least 2 routers, got %d", cfg.Routers)
	}
	if cfg.LinksPerNewRouter < 1 {
		cfg.LinksPerNewRouter = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nw := netgraph.New(fmt.Sprintf("ScaleFree-%dr%dh", cfg.Routers, cfg.Hosts))
	const as = 1

	latency := func() float64 {
		return 0.5*ms + rng.Float64()*19.5*ms
	}
	bandwidth := func() float64 {
		switch r := rng.Float64(); {
		case r < 0.5:
			return 155 * Mbps
		case r < 0.85:
			return 622 * Mbps
		default:
			return 2.5 * Gbps
		}
	}

	routers := make([]int, cfg.Routers)
	for i := range routers {
		routers[i] = nw.AddRouter(fmt.Sprintf("r%d", i), as)
	}

	// endpoints holds every link endpoint once; uniform sampling from it is
	// degree-proportional sampling.
	m := cfg.LinksPerNewRouter
	endpoints := make([]int, 0, 2*m*cfg.Routers)
	addLink := func(i, j int) {
		nw.AddLink(routers[i], routers[j], bandwidth(), latency())
		endpoints = append(endpoints, i, j)
	}

	// Seed clique of m+1 routers.
	seedN := m + 1
	if seedN > cfg.Routers {
		seedN = cfg.Routers
	}
	for i := 0; i < seedN; i++ {
		for j := i + 1; j < seedN; j++ {
			addLink(i, j)
		}
	}

	// Incremental attachment: each new router draws m distinct targets from
	// the endpoint list (degree-proportional), falling back to a uniform
	// draw after repeated collisions so dense early graphs cannot stall.
	chosen := make(map[int]bool, m)
	for i := seedN; i < cfg.Routers; i++ {
		mi := m
		if mi > i {
			mi = i
		}
		clear(chosen)
		// Sample from the endpoint list as it stood before router i started
		// attaching, so i can never draw itself into a self-loop.
		limit := len(endpoints)
		for len(chosen) < mi {
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
