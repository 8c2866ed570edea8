// Package topogen generates the three experiment topologies of the paper's
// Table 1 — a university Campus section, the TeraGrid (Figure 3), and
// BRITE-style Internet-like router topologies — plus the larger Brite
// configuration of Table 2.
//
// All generators are deterministic for a given seed.
package topogen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/netgraph"
)

// Common link speeds (bits per second).
const (
	Mbps = 1e6
	Gbps = 1e9

	ms = 1e-3 // seconds
	us = 1e-6
)

// Spec summarizes a generated topology the way Table 1 does.
type Spec struct {
	Name    string
	Routers int
	Hosts   int
	// Engines is the number of simulation-engine nodes the paper assigns to
	// this topology.
	Engines int
}

// Table1 returns the paper's Table 1 rows: the three experiment topologies
// and their simulation-engine counts.
func Table1() []Spec {
	return []Spec{
		{Name: "Campus", Routers: 20, Hosts: 40, Engines: 3},
		{Name: "TeraGrid", Routers: 27, Hosts: 150, Engines: 5},
		{Name: "Brite", Routers: 160, Hosts: 132, Engines: 8},
	}
}

// Table2Spec is the larger Brite configuration of §4.2.3 / Table 2.
func Table2Spec() Spec {
	return Spec{Name: "Brite-large", Routers: 200, Hosts: 364, Engines: 20}
}

// Campus generates a section of a university campus network: 20 routers and
// 40 hosts (the Campus row of Table 1). Real campus sections are
// heterogeneous, so the departments are deliberately uneven: a 2-router
// gigabit core, four departments of different sizes (6/5/4/3 routers and
// 16/12/8/4 hosts) hanging off it, and a mix of 100 Mb/s and aging 10 Mb/s
// access links. The heterogeneity matters for the evaluation: link bandwidth
// is a poor proxy for actual traffic here, which is precisely the regime
// where the TOP approach struggles (§3.1 expects TOP to work only for
// "well-engineered networks with evenly distributed traffic").
func Campus() *netgraph.Network {
	nw := netgraph.New("Campus")
	nw.Grow(60, 59) // Table 1's 20 routers and 40 hosts, joined as a tree
	const as = 1

	coreA := nw.AddRouter("core-0", as)
	coreB := nw.AddRouter("core-1", as)
	nw.AddLink(coreA, coreB, 1*Gbps, 0.5*ms)

	depts := []struct {
		edges int // edge routers under the department's distribution router
		hosts int
		core  int
	}{
		{5, 16, 0},
		{4, 12, 0},
		{3, 8, 1},
		{2, 4, 1},
	}
	cores := []int{coreA, coreB}

	host := 0
	for d, dept := range depts {
		dist := nw.AddRouter(fmt.Sprintf("dept%d-dist", d), as)
		nw.AddLink(cores[dept.core], dist, 100*Mbps, 1*ms)
		edges := make([]int, dept.edges)
		for e := range edges {
			edges[e] = nw.AddRouter(fmt.Sprintf("dept%d-edge%d", d, e), as)
			nw.AddLink(dist, edges[e], 100*Mbps, 1*ms)
		}
		for h := 0; h < dept.hosts; h++ {
			id := nw.AddHost(fmt.Sprintf("h%d", host), as)
			host++
			// Hosts pile unevenly onto the lower-numbered edge routers
			// (h%3 ranges over at most 3 of the 2-5 edge routers), and
			// every third access link is legacy 10 Mb/s.
			attach := edges[h%3%len(edges)]
			speed := 100 * Mbps
			if h%3 == 2 {
				speed = 10 * Mbps
			}
			nw.AddLink(id, attach, speed, 0.5*ms)
		}
	}
	return nw
}

// teraGridSite describes one TeraGrid site from Figure 3.
type teraGridSite struct {
	name    string
	routers int
	hosts   int
}

// TeraGrid generates the 2003 TeraGrid per Figure 3: five sites joined by a
// 40 Gb/s backbone through two core hub routers; each site has a border
// router and a few internal cluster routers serving its hosts. Totals match
// Table 1: 27 routers, 150 hosts.
func TeraGrid() *netgraph.Network {
	nw := netgraph.New("TeraGrid")
	nw.Grow(177, 191) // Table 1's 27 routers and 150 hosts
	sites := []teraGridSite{
		{"SDSC", 5, 40},
		{"NCSA", 5, 40},
		{"ANL", 5, 25},
		{"CIT", 5, 20},
		{"PSC", 5, 25},
	}

	// Two backbone hubs (Los Angeles and Chicago in the real TeraGrid).
	hubLA := nw.AddRouter("hub-LA", 0)
	hubCHI := nw.AddRouter("hub-CHI", 0)
	nw.SetSite(hubLA, "backbone")
	nw.SetSite(hubCHI, "backbone")
	nw.AddLink(hubLA, hubCHI, 40*Gbps, 10*ms)

	hubFor := map[string]int{
		"SDSC": hubLA, "CIT": hubLA,
		"NCSA": hubCHI, "ANL": hubCHI, "PSC": hubCHI,
	}

	host := 0
	for asn, s := range sites {
		border := nw.AddRouter(s.name+"-border", asn+1)
		nw.SetSite(border, s.name)
		nw.AddLink(border, hubFor[s.name], 40*Gbps, 3*ms)

		internal := make([]int, s.routers-1)
		for i := range internal {
			internal[i] = nw.AddRouter(fmt.Sprintf("%s-r%d", s.name, i), asn+1)
			nw.SetSite(internal[i], s.name)
			nw.AddLink(border, internal[i], 10*Gbps, 0.5*ms)
		}
		// Chain the internal routers so each site has some interior
		// structure (cluster interconnect spine).
		for i := 1; i < len(internal); i++ {
			nw.AddLink(internal[i-1], internal[i], 10*Gbps, 0.5*ms)
		}
		for h := 0; h < s.hosts; h++ {
			id := nw.AddHost(fmt.Sprintf("%s-h%d", s.name, host), asn+1)
			nw.SetSite(id, s.name)
			host++
			nw.AddLink(id, internal[h%len(internal)], 1*Gbps, 0.5*ms)
		}
	}
	return nw
}

// BriteConfig parameterizes the BRITE-like generator.
type BriteConfig struct {
	// Routers is the router count (Table 1 uses 160, Table 2 uses 200).
	Routers int
	// Hosts is the host count (132 / 364).
	Hosts int
	// LinksPerNewRouter is the Barabási–Albert incremental attachment
	// degree m; BRITE's default is 2.
	LinksPerNewRouter int
	// Seed drives all random choices.
	Seed int64
}

// Brite generates an Internet-like router-level topology following BRITE's
// Barabási–Albert mode: routers are placed on a unit plane and join the
// network one at a time, connecting m links to existing routers chosen with
// probability proportional to their current degree. Link latencies derive
// from plane distance; bandwidths are drawn from typical 2003 transit tiers.
// Hosts attach to uniformly random routers on fast-Ethernet access links.
// All routers share one AS, matching §4.2.3 ("all the routers are created in
// a single AS"). It errors when the configuration asks for fewer than 2
// routers — user input, not an internal invariant.
func Brite(cfg BriteConfig) (*netgraph.Network, error) {
	if cfg.Routers < 2 {
		return nil, fmt.Errorf("topogen: Brite needs at least 2 routers, got %d", cfg.Routers)
	}
	if cfg.LinksPerNewRouter < 1 {
		cfg.LinksPerNewRouter = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nw := netgraph.New(fmt.Sprintf("Brite-%dr%dh", cfg.Routers, cfg.Hosts))
	// The links: a seed clique of m+1 routers, m for each later router, and
	// one for each host.
	m, seedN := cfg.LinksPerNewRouter, min(cfg.LinksPerNewRouter+1, cfg.Routers)
	nw.Grow(cfg.Routers+cfg.Hosts, seedN*(seedN-1)/2+(cfg.Routers-seedN)*m+cfg.Hosts)
	const as = 1

	// Router placement on the unit square; latency ∝ distance (speed of
	// light in fiber over a continental scale: the unit square spans ~20ms).
	x := make([]float64, cfg.Routers)
	y := make([]float64, cfg.Routers)
	deg := make([]int, cfg.Routers)
	var totalDeg int

	routers := make([]int, cfg.Routers)
	for i := 0; i < cfg.Routers; i++ {
		routers[i] = nw.AddRouter(fmt.Sprintf("r%d", i), as)
		x[i], y[i] = rng.Float64(), rng.Float64()
	}

	latency := func(i, j int) float64 {
		d := math.Hypot(x[i]-x[j], y[i]-y[j])
		l := d * 20 * ms
		if l < 0.5*ms {
			l = 0.5 * ms
		}
		return l
	}

	// Seed clique of m+1 routers.
	for i := 0; i < seedN; i++ {
		for j := i + 1; j < seedN; j++ {
			nw.AddLink(routers[i], routers[j], transitBandwidth(rng), latency(i, j))
			deg[i]++
			deg[j]++
			totalDeg += 2
		}
	}

	// Incremental preferential attachment: m links per router, as i > m.
	for i := seedN; i < cfg.Routers; i++ {
		chosen := make(map[int]bool, m)
		for len(chosen) < m {
			t := pickPreferential(rng, deg[:i], totalDeg)
			if chosen[t] {
				// Resample; dense early graphs make collisions common.
				t = rng.Intn(i)
				if chosen[t] {
					continue
				}
			}
			chosen[t] = true
			nw.AddLink(routers[i], routers[t], transitBandwidth(rng), latency(i, t))
			deg[i]++
			deg[t]++
			totalDeg += 2
		}
	}

	// Hosts on uniformly random routers.
	for h := 0; h < cfg.Hosts; h++ {
		id := nw.AddHost(fmt.Sprintf("h%d", h), as)
		r := routers[rng.Intn(cfg.Routers)]
		nw.AddLink(id, r, 100*Mbps, 0.5*ms)
	}
	return nw, nil
}

// transitBandwidth draws a router link's bandwidth from the 2003 transit
// tiers: OC-3 (155 Mb/s), OC-12 (622 Mb/s), OC-48 (2.5 Gb/s) — heavier tail
// on the slower tiers.
func transitBandwidth(rng *rand.Rand) float64 {
	switch r := rng.Float64(); {
	case r < 0.5:
		return 155 * Mbps
	case r < 0.85:
		return 622 * Mbps
	default:
		return 2.5 * Gbps
	}
}

// pickPreferential samples an index from deg with probability proportional
// to degree (uniform fallback if all degrees are zero).
func pickPreferential(rng *rand.Rand, deg []int, totalDeg int) int {
	if totalDeg <= 0 {
		return rng.Intn(len(deg))
	}
	// totalDeg counts the whole graph; restrict to the prefix sum.
	var prefixTotal int
	for _, d := range deg {
		prefixTotal += d
	}
	if prefixTotal <= 0 {
		return rng.Intn(len(deg))
	}
	t := rng.Intn(prefixTotal)
	for i, d := range deg {
		t -= d
		if t < 0 {
			return i
		}
	}
	return len(deg) - 1
}

// ByName builds one of the paper's topologies by Table 1 name ("Campus",
// "TeraGrid", "Brite") or the Table 2 configuration ("Brite-large").
// The seed only affects the Brite variants.
func ByName(name string, seed int64) (*netgraph.Network, error) {
	switch name {
	case "Campus":
		return Campus(), nil
	case "TeraGrid":
		return TeraGrid(), nil
	case "Brite":
		return Brite(BriteConfig{Routers: 160, Hosts: 132, LinksPerNewRouter: 2, Seed: seed})
	case "Brite-large":
		return Brite(BriteConfig{Routers: 200, Hosts: 364, LinksPerNewRouter: 2, Seed: seed})
	default:
		return nil, fmt.Errorf("topogen: unknown topology %q", name)
	}
}
