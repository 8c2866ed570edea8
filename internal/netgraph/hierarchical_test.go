package netgraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoASNetwork builds two triangle ASes joined by two border links of
// different latency:
//
//	AS1: 0-1-2 (triangle)     AS2: 3-4-5 (triangle)
//	border: 1-3 (5ms), 2-4 (1ms)
func twoASNetwork() *Network {
	nw := New("two-as")
	for i := 0; i < 3; i++ {
		nw.AddRouter("a", 1)
	}
	for i := 0; i < 3; i++ {
		nw.AddRouter("b", 2)
	}
	nw.AddLink(0, 1, 1e9, 1e-3)
	nw.AddLink(1, 2, 1e9, 1e-3)
	nw.AddLink(0, 2, 1e9, 1e-3)
	nw.AddLink(3, 4, 1e9, 1e-3)
	nw.AddLink(4, 5, 1e9, 1e-3)
	nw.AddLink(3, 5, 1e9, 1e-3)
	nw.AddLink(1, 3, 1e9, 5e-3) // slow border
	nw.AddLink(2, 4, 1e9, 1e-3) // fast border
	return nw
}

func TestHierarchicalIntraAS(t *testing.T) {
	nw := twoASNetwork()
	h := nw.BuildHierarchicalRouting()
	// Within AS1, routing equals flat shortest path.
	flat := nw.BuildRoutingTable()
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if hd, fd := pathLatency(nw, h, src, dst), pathLatency(nw, flat, src, dst); math.Abs(hd-fd) > 1e-12 {
				t.Errorf("intra distance %d->%d: %v vs flat %v", src, dst, hd, fd)
			}
		}
	}
}

func TestHierarchicalCrossAS(t *testing.T) {
	nw := twoASNetwork()
	h := nw.BuildHierarchicalRouting()
	// Gateway selection: the AS pair's min-latency border link (2-4).
	path := nw.Route(h, 0, 5)
	if path == nil {
		t.Fatal("no hierarchical route 0 -> 5")
	}
	// Path must cross via node 2 then 4 (the fast border link).
	crossedFast := false
	for i := 1; i < len(path); i++ {
		if (path[i-1] == 2 && path[i] == 4) || (path[i-1] == 4 && path[i] == 2) {
			crossedFast = true
		}
		if (path[i-1] == 1 && path[i] == 3) || (path[i-1] == 3 && path[i] == 1) {
			t.Errorf("route used the slow border link: %v", path)
		}
	}
	if !crossedFast {
		t.Errorf("route did not use the fast border link: %v", path)
	}
	if path[0] != 0 || path[len(path)-1] != 5 {
		t.Errorf("path endpoints wrong: %v", path)
	}
}

func TestHierarchicalAllPairsReachable(t *testing.T) {
	nw := twoASNetwork()
	h := nw.BuildHierarchicalRouting()
	for src := 0; src < 6; src++ {
		for dst := 0; dst < 6; dst++ {
			if src == dst {
				if pathLatency(nw, h, src, dst) != 0 {
					t.Errorf("self distance %d nonzero", src)
				}
				continue
			}
			if nw.Route(h, src, dst) == nil {
				t.Errorf("no route %d -> %d", src, dst)
			}
			if math.IsInf(pathLatency(nw, h, src, dst), 1) {
				t.Errorf("infinite distance %d -> %d", src, dst)
			}
		}
	}
}

func TestHierarchicalAtLeastFlatDistance(t *testing.T) {
	// Hierarchical routes can only be as good as flat shortest paths.
	nw := twoASNetwork()
	h := nw.BuildHierarchicalRouting()
	flat := nw.BuildRoutingTable()
	for src := 0; src < 6; src++ {
		for dst := 0; dst < 6; dst++ {
			if hd, fd := pathLatency(nw, h, src, dst), pathLatency(nw, flat, src, dst); hd < fd-1e-12 {
				t.Errorf("hierarchical %d->%d shorter than flat: %v < %v", src, dst, hd, fd)
			}
		}
	}
}

func TestHierarchicalMultiHopAS(t *testing.T) {
	// Three ASes in a chain: AS1 - AS2 - AS3; routing 1->3 must transit 2.
	nw := New("chain-as")
	a := nw.AddRouter("a", 1)
	b := nw.AddRouter("b", 2)
	c := nw.AddRouter("c", 3)
	nw.AddLink(a, b, 1e9, 1e-3)
	nw.AddLink(b, c, 1e9, 1e-3)
	h := nw.BuildHierarchicalRouting()
	path := nw.Route(h, a, c)
	if len(path) != 3 || path[1] != b {
		t.Errorf("path = %v, want transit through AS2", path)
	}
	if d := pathLatency(nw, h, a, c); math.Abs(d-2e-3) > 1e-12 {
		t.Errorf("distance = %v, want 2ms", d)
	}
}

func TestHierarchicalTableEntries(t *testing.T) {
	nw := twoASNetwork()
	h := nw.BuildHierarchicalRouting()
	// Each node: 3 AS members + 1 foreign AS = 4 entries, far below the
	// flat table's 6.
	if got := h.TableEntries(0); got != 4 {
		t.Errorf("TableEntries = %d, want 4", got)
	}
}

func TestHierarchicalOnTeraGridShape(t *testing.T) {
	// TeraGrid has 6 ASes (backbone + 5 sites); all host pairs must route,
	// and cross-site routes must pass through border routers.
	nw := teraGridForTest(t)
	h := nw.BuildHierarchicalRouting()
	hosts := nw.Hosts()
	for i := 0; i < len(hosts); i += 17 {
		for j := 5; j < len(hosts); j += 23 {
			src, dst := hosts[i], hosts[j]
			if src == dst {
				continue
			}
			path := nw.Route(h, src, dst)
			if path == nil {
				t.Fatalf("no hierarchical route %d -> %d", src, dst)
			}
		}
	}
}

// teraGridForTest avoids an import cycle with topogen by building a tiny
// multi-AS stand-in with the same structure class.
func teraGridForTest(t *testing.T) *Network {
	t.Helper()
	nw := New("mini-teragrid")
	hubA := nw.AddRouter("hubA", 0)
	hubB := nw.AddRouter("hubB", 0)
	nw.AddLink(hubA, hubB, 40e9, 10e-3)
	for site := 1; site <= 3; site++ {
		border := nw.AddRouter("border", site)
		hub := hubA
		if site%2 == 0 {
			hub = hubB
		}
		nw.AddLink(border, hub, 40e9, 3e-3)
		prev := border
		for r := 0; r < 2; r++ {
			rt := nw.AddRouter("r", site)
			nw.AddLink(prev, rt, 10e9, 0.5e-3)
			prev = rt
			for hcount := 0; hcount < 3; hcount++ {
				hn := nw.AddHost("h", site)
				nw.AddLink(hn, rt, 1e9, 0.5e-3)
			}
		}
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	return nw
}

// randomMultiAS builds a connected random network whose nodes are spread
// over several ASes, with every AS internally connected.
func randomMultiAS(numAS, perAS int, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	nw := New("multi-as")
	for a := 1; a <= numAS; a++ {
		base := nw.NumNodes()
		for i := 0; i < perAS; i++ {
			nw.AddRouter("r", a)
			if i > 0 {
				nw.AddLink(base+i, base+rng.Intn(i), 1e9, float64(1+rng.Intn(5))*1e-3)
			}
		}
		// One border link back to the previous AS plus a random shortcut.
		if a > 1 {
			prevBase := base - perAS
			nw.AddLink(base+rng.Intn(perAS), prevBase+rng.Intn(perAS), 1e9, float64(2+rng.Intn(8))*1e-3)
			if rng.Intn(2) == 0 {
				other := rng.Intn(base)
				nw.AddLink(base+rng.Intn(perAS), other, 1e9, float64(2+rng.Intn(8))*1e-3)
			}
		}
	}
	return nw
}

// TestPropertyHierarchicalRandomNetworks: on arbitrary multi-AS networks,
// hierarchical routing must reach every destination with a loop-free path
// whose latency is >= the flat shortest path.
func TestPropertyHierarchicalRandomNetworks(t *testing.T) {
	f := func(seed int64) bool {
		nw := randomMultiAS(4, 6, seed)
		if err := nw.Validate(); err != nil {
			return true // disconnected instance: skip
		}
		h := nw.BuildHierarchicalRouting()
		flat := nw.BuildRoutingTable()
		n := nw.NumNodes()
		rng := rand.New(rand.NewSource(seed ^ 0x1234))
		for trial := 0; trial < 12; trial++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			path := nw.Route(h, src, dst)
			if src == dst {
				if len(path) != 1 {
					return false
				}
				continue
			}
			if path == nil {
				return false
			}
			// Simple (loop-free) and endpoints correct.
			seen := map[int]bool{}
			for _, v := range path {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
			if path[0] != src || path[len(path)-1] != dst {
				return false
			}
			if pathLatency(nw, h, src, dst) < pathLatency(nw, flat, src, dst)-1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(55))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
