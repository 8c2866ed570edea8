package topogen

import (
	"slices"
	"testing"

	"repro/internal/netgraph"
)

func mustBrite(t *testing.T, cfg BriteConfig) *netgraph.Network {
	t.Helper()
	nw, err := Brite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestTable1Specs(t *testing.T) {
	specs := Table1()
	if len(specs) != 3 {
		t.Fatalf("Table1 rows = %d, want 3", len(specs))
	}
	want := []Spec{
		{"Campus", 20, 40, 3},
		{"TeraGrid", 27, 150, 5},
		{"Brite", 160, 132, 8},
	}
	for i, s := range specs {
		if s != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, s, want[i])
		}
	}
}

func TestCampusMatchesTable1(t *testing.T) {
	nw := Campus()
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if nw.NumRouters() != 20 {
		t.Errorf("Campus routers = %d, want 20", nw.NumRouters())
	}
	if nw.NumHosts() != 40 {
		t.Errorf("Campus hosts = %d, want 40", nw.NumHosts())
	}
}

func TestTeraGridMatchesTable1(t *testing.T) {
	nw := TeraGrid()
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if nw.NumRouters() != 27 {
		t.Errorf("TeraGrid routers = %d, want 27", nw.NumRouters())
	}
	if nw.NumHosts() != 150 {
		t.Errorf("TeraGrid hosts = %d, want 150", nw.NumHosts())
	}
	// Five sites plus the backbone hubs.
	sites := map[string]int{}
	for _, n := range nw.Nodes {
		if n.Site != "" && n.Site != "backbone" {
			sites[n.Site]++
		}
	}
	if len(sites) != 5 {
		t.Errorf("TeraGrid sites = %v, want 5", sites)
	}
	// Figure 3: every site connects to the backbone at 40 Gb/s.
	for _, l := range nw.Links {
		a, b := nw.Nodes[l.A], nw.Nodes[l.B]
		backbone := a.Site == "backbone" || b.Site == "backbone"
		if backbone && l.Bandwidth < 40*Gbps {
			t.Errorf("backbone link %d bandwidth = %v, want >= 40 Gb/s", l.ID, l.Bandwidth)
		}
	}
}

func TestBriteMatchesTable1(t *testing.T) {
	nw := mustBrite(t, BriteConfig{Routers: 160, Hosts: 132, LinksPerNewRouter: 2, Seed: 1})
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if nw.NumRouters() != 160 {
		t.Errorf("Brite routers = %d, want 160", nw.NumRouters())
	}
	if nw.NumHosts() != 132 {
		t.Errorf("Brite hosts = %d, want 132", nw.NumHosts())
	}
	// Single AS (§4.2.3).
	for _, n := range nw.Nodes {
		if n.AS != 1 {
			t.Fatalf("node %d in AS %d, want 1", n.ID, n.AS)
		}
	}
}

func TestBriteDeterministic(t *testing.T) {
	a := mustBrite(t, BriteConfig{Routers: 50, Hosts: 30, Seed: 7})
	b := mustBrite(t, BriteConfig{Routers: 50, Hosts: 30, Seed: 7})
	if len(a.Links) != len(b.Links) {
		t.Fatal("same seed, different link counts")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("same seed, different link %d", i)
		}
	}
	c := mustBrite(t, BriteConfig{Routers: 50, Hosts: 30, Seed: 8})
	same := len(a.Links) == len(c.Links)
	if same {
		identical := true
		for i := range a.Links {
			if a.Links[i] != c.Links[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical topologies")
		}
	}
}

func TestBritePreferentialAttachmentSkew(t *testing.T) {
	// BA graphs have a hub structure: max degree should be well above the
	// mean degree.
	nw := mustBrite(t, BriteConfig{Routers: 200, Hosts: 0, LinksPerNewRouter: 2, Seed: 3})
	maxDeg, sumDeg := 0, 0
	for _, r := range nw.Routers() {
		d := len(nw.Neighbors(r))
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sumDeg) / 200
	if float64(maxDeg) < 3*mean {
		t.Errorf("max degree %d vs mean %.1f: no preferential-attachment skew", maxDeg, mean)
	}
}

func TestBriteLarge(t *testing.T) {
	spec := Table2Spec()
	nw := mustBrite(t, BriteConfig{Routers: spec.Routers, Hosts: spec.Hosts, LinksPerNewRouter: 2, Seed: 11})
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if nw.NumRouters() != 200 || nw.NumHosts() != 364 {
		t.Errorf("Brite-large = %dr/%dh, want 200/364", nw.NumRouters(), nw.NumHosts())
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Campus", "TeraGrid", "Brite", "Brite-large"} {
		nw, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := nw.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestBriteErrorsOnTinyConfig(t *testing.T) {
	if _, err := Brite(BriteConfig{Routers: 1}); err == nil {
		t.Error("Brite with 1 router did not error")
	}
}

func TestAllTopologiesRoutable(t *testing.T) {
	for _, name := range []string{"Campus", "TeraGrid", "Brite"} {
		nw, err := ByName(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		rt := nw.SharedRouting()
		hosts := nw.Hosts()
		// Every host pair must be routable.
		for i := 0; i < len(hosts); i += 7 {
			for j := 0; j < len(hosts); j += 11 {
				if path, _ := nw.RoutePath(rt, hosts[i], hosts[j]); path == nil {
					t.Fatalf("%s: no route %d -> %d", name, hosts[i], hosts[j])
				}
			}
		}
	}
}

func TestBriteIsSmallWorld(t *testing.T) {
	// Barabási–Albert graphs have logarithmic diameters and hub-dominated
	// degree distributions: for 200 routers, diameter well under 12 and a
	// hub with degree >= 10.
	nw := mustBrite(t, BriteConfig{Routers: 200, Hosts: 0, LinksPerNewRouter: 2, Seed: 5})
	s := nw.ComputeStats()
	if s.Diameter < 3 || s.Diameter > 12 {
		t.Errorf("BA diameter = %d, want small-world range", s.Diameter)
	}
	if s.MaxDegree < 10 {
		t.Errorf("BA max degree = %d, want hub >= 10", s.MaxDegree)
	}
	if s.MeanDegree < 3.5 || s.MeanDegree > 4.5 {
		t.Errorf("BA mean degree = %.2f, want ~4 (m=2)", s.MeanDegree)
	}
}

func TestCampusStats(t *testing.T) {
	s := Campus().ComputeStats()
	// Two-level tree off a 2-router core: diameter ~6, no isolated routers.
	if s.Diameter < 3 || s.Diameter > 8 {
		t.Errorf("Campus diameter = %d", s.Diameter)
	}
	if s.MinDegree < 1 {
		t.Errorf("Campus has an isolated router: %+v", s)
	}
}

// TestGeneratorsBuildAtFinalSize: every generator sizes its network with
// netgraph.Network.Grow from the counts it knows before adding anything, so
// Nodes and Links end with the capacity one allocation of their final length
// has — none grew by append.
func TestGeneratorsBuildAtFinalSize(t *testing.T) {
	nets := map[string]*netgraph.Network{
		"Campus":   Campus(),
		"TeraGrid": TeraGrid(),
		"Brite-m3": mustBrite(t, BriteConfig{Routers: 50, Hosts: 7, LinksPerNewRouter: 3, Seed: 1}),
		"Brite-2":  mustBrite(t, BriteConfig{Routers: 2, Hosts: 3, LinksPerNewRouter: 4, Seed: 1}),
	}
	for _, name := range []string{"Brite", "Brite-large"} {
		nw, err := ByName(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		nets[name] = nw
	}
	for _, cfg := range []ScaleFreeConfig{{Routers: 500, Hosts: 50, Seed: 1}, {Routers: 3, Hosts: 0, LinksPerNewRouter: 5, Seed: 1}} {
		nw, err := ScaleFree(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nets[nw.Name] = nw
	}
	for name, nw := range nets {
		if !builtAtFinalSize(nw) {
			t.Errorf("%s: %d node and %d link slots for %d nodes and %d links", name, cap(nw.Nodes), cap(nw.Links), len(nw.Nodes), len(nw.Links))
		}
	}
}

// builtAtFinalSize reports whether nw's Nodes and Links have the capacity of
// one allocation of their final length.
func builtAtFinalSize(nw *netgraph.Network) bool {
	return cap(nw.Nodes) == cap(slices.Grow([]netgraph.Node(nil), len(nw.Nodes))) &&
		cap(nw.Links) == cap(slices.Grow([]netgraph.Link(nil), len(nw.Links)))
}
