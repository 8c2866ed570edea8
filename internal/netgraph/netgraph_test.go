package netgraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// lineNetwork builds h0 - r0 - r1 - r2 - h1 with distinct latencies.
func lineNetwork() *Network {
	nw := New("line")
	h0 := nw.AddHost("h0", 1)
	r0 := nw.AddRouter("r0", 1)
	r1 := nw.AddRouter("r1", 1)
	r2 := nw.AddRouter("r2", 1)
	h1 := nw.AddHost("h1", 1)
	nw.AddLink(h0, r0, 100e6, 0.001)
	nw.AddLink(r0, r1, 1e9, 0.002)
	nw.AddLink(r1, r2, 1e9, 0.003)
	nw.AddLink(r2, h1, 100e6, 0.001)
	return nw
}

func TestCounts(t *testing.T) {
	nw := lineNetwork()
	if nw.NumNodes() != 5 || nw.NumRouters() != 3 || nw.NumHosts() != 2 {
		t.Fatalf("counts = %d/%d/%d, want 5/3/2", nw.NumNodes(), nw.NumRouters(), nw.NumHosts())
	}
	if len(nw.Hosts()) != 2 || len(nw.Routers()) != 3 {
		t.Fatal("Hosts/Routers listing wrong")
	}
}

func TestLinkOther(t *testing.T) {
	l := Link{ID: 0, A: 3, B: 7}
	if l.Other(3) != 7 || l.Other(7) != 3 {
		t.Fatal("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on non-endpoint did not panic")
		}
	}()
	l.Other(5)
}

func TestNeighbors(t *testing.T) {
	nw := lineNetwork()
	nb := nw.Neighbors(1) // r0: h0 and r1
	if len(nb) != 2 {
		t.Fatalf("r0 neighbors = %v", nb)
	}
}

func TestTotalBandwidth(t *testing.T) {
	nw := lineNetwork()
	// r1 touches two 1Gb/s links.
	if got := nw.TotalBandwidth(2); got != 2e9 {
		t.Errorf("TotalBandwidth(r1) = %v, want 2e9", got)
	}
}

func TestMemoryWeight(t *testing.T) {
	nw := lineNetwork()
	asr := nw.ASRouterCount()
	if asr[1] != 3 {
		t.Fatalf("AS 1 router count = %d, want 3", asr[1])
	}
	// Router: 10 + 3² = 19; host: 10.
	if got := nw.MemoryWeight(1, asr); got != 19 {
		t.Errorf("router MemoryWeight = %d, want 19", got)
	}
	if got := nw.MemoryWeight(0, asr); got != 10 {
		t.Errorf("host MemoryWeight = %d, want 10", got)
	}
}

func TestValidate(t *testing.T) {
	nw := lineNetwork()
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	// Disconnected: add an isolated router.
	nw2 := lineNetwork()
	nw2.AddRouter("lonely", 1)
	if err := nw2.Validate(); err == nil {
		t.Error("disconnected network accepted")
	}
	// Host without access link.
	nw3 := New("x")
	nw3.AddHost("h", 1)
	if err := nw3.Validate(); err == nil {
		t.Error("unattached host accepted")
	}
	// Bad bandwidth.
	nw4 := New("y")
	a := nw4.AddRouter("a", 1)
	b := nw4.AddRouter("b", 1)
	nw4.AddLink(a, b, 0, 0.001)
	if err := nw4.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	// Non-finite bandwidth or latency: NaN passes a plain sign test.
	for _, l := range [][2]float64{{math.NaN(), 0.001}, {math.Inf(1), 0.001}, {1e9, math.NaN()}, {1e9, math.Inf(1)}} {
		nw := New("w")
		nw.AddLink(nw.AddRouter("a", 1), nw.AddRouter("b", 1), l[0], l[1])
		if err := nw.Validate(); err == nil {
			t.Errorf("bandwidth %g, latency %g accepted", l[0], l[1])
		}
	}
	// Self loop.
	nw5 := New("z")
	c := nw5.AddRouter("c", 1)
	nw5.Links = append(nw5.Links, Link{ID: 0, A: c, B: c, Bandwidth: 1, Latency: 0})
	if err := nw5.Validate(); err == nil {
		t.Error("self loop accepted")
	}
}

func TestRoutingLine(t *testing.T) {
	nw := lineNetwork()
	rt := nw.BuildRoutingTable()
	path, _ := nw.RoutePath(rt, 0, 4)
	want := []int{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if d := pathLatency(nw, rt, 0, 4); math.Abs(d-0.007) > 1e-12 {
		t.Errorf("distance = %v, want 0.007", d)
	}
	if d := pathLatency(nw, rt, 2, 2); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
	links := nw.RouteLinks(rt, 0, 4)
	if len(links) != 4 {
		t.Fatalf("RouteLinks = %v, want 4 links", links)
	}
	if nw.RouteLinks(rt, 2, 2) != nil {
		t.Error("RouteLinks self not nil")
	}
}

func TestRoutingPrefersLowLatency(t *testing.T) {
	// Triangle where the direct a-b link is slower than a-c-b.
	nw := New("tri")
	a := nw.AddRouter("a", 1)
	b := nw.AddRouter("b", 1)
	c := nw.AddRouter("c", 1)
	nw.AddLink(a, b, 1e9, 0.010)
	nw.AddLink(a, c, 1e9, 0.002)
	nw.AddLink(c, b, 1e9, 0.002)
	rt := nw.BuildRoutingTable()
	path, _ := nw.RoutePath(rt, a, b)
	if len(path) != 3 || path[1] != c {
		t.Errorf("path = %v, want detour through c", path)
	}
	if d := pathLatency(nw, rt, a, b); math.Abs(d-0.004) > 1e-12 {
		t.Errorf("distance = %v, want 0.004", d)
	}
}

func TestRoutingUnreachable(t *testing.T) {
	nw := New("u")
	a := nw.AddRouter("a", 1)
	b := nw.AddRouter("b", 1)
	_ = b
	rt := nw.BuildRoutingTable()
	if path, _ := nw.RoutePath(rt, a, b); path != nil {
		t.Error("route across disconnected components")
	}
	if rt.NextLink(a, b) != -1 {
		t.Error("NextLink should be -1")
	}
	if !math.IsInf(pathLatency(nw, rt, a, b), 1) {
		t.Error("distance should be +Inf")
	}
}

// pathLatency sums the link latencies along the route r gives from src to
// dst: 0 for src == dst, +Inf when r has no loop-free route.
func pathLatency(nw *Network, r Routing, src, dst int) float64 {
	if src == dst {
		return 0
	}
	_, links := nw.RoutePath(r, src, dst)
	if links == nil {
		return math.Inf(1)
	}
	var d float64
	for _, lid := range links {
		d += nw.Links[lid].Latency
	}
	return d
}

// floydWarshall returns every pair's shortest path latency, computed without
// any route oracle.
func floydWarshall(nw *Network) [][]float64 {
	n := nw.NumNodes()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for _, l := range nw.Links {
		d[l.A][l.B] = math.Min(d[l.A][l.B], l.Latency)
		d[l.B][l.A] = d[l.A][l.B]
	}
	for k := range d {
		for i := range d {
			for j := range d {
				d[i][j] = math.Min(d[i][j], d[i][k]+d[k][j])
			}
		}
	}
	return d
}

// randomNetwork builds a connected random network for property tests.
func randomNetwork(n int, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	nw := New("rand")
	for i := 0; i < n; i++ {
		nw.AddRouter("r", 1)
		if i > 0 {
			nw.AddLink(i, rng.Intn(i), 1e9, float64(1+rng.Intn(10))*1e-3)
		}
	}
	for i := 0; i < n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			nw.AddLink(a, b, 1e9, float64(1+rng.Intn(10))*1e-3)
		}
	}
	return nw
}

func TestRoutingProperties(t *testing.T) {
	f := func(seed int64) bool {
		nw := randomNetwork(30, seed)
		rt := nw.BuildRoutingTable()
		shortest := floydWarshall(nw)
		rng := rand.New(rand.NewSource(seed ^ 0x77))
		for trial := 0; trial < 10; trial++ {
			src, dst := rng.Intn(30), rng.Intn(30)
			path, links := nw.RoutePath(rt, src, dst)
			if path == nil {
				return false // connected by construction
			}
			if path[0] != src || path[len(path)-1] != dst || len(links) != len(path)-1 {
				return false
			}
			// Each link joins its two consecutive nodes; total latency is
			// the shortest.
			var total float64
			for i, lid := range links {
				l := nw.Links[lid]
				if !(l.A == path[i] && l.B == path[i+1]) && !(l.B == path[i] && l.A == path[i+1]) {
					return false
				}
				total += l.Latency
			}
			if math.Abs(total-shortest[src][dst]) > 1e-9 {
				return false
			}
			// No repeated nodes (simple path).
			seen := map[int]bool{}
			for _, v := range path {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRoutingSymmetricDistance(t *testing.T) {
	// Undirected links: distance must be symmetric.
	nw := randomNetwork(25, 42)
	rt := nw.BuildRoutingTable()
	for a := 0; a < 25; a++ {
		for b := 0; b < 25; b++ {
			if math.Abs(pathLatency(nw, rt, a, b)-pathLatency(nw, rt, b, a)) > 1e-9 {
				t.Fatalf("asymmetric distance %d<->%d", a, b)
			}
		}
	}
}

func TestNodeKindString(t *testing.T) {
	if Router.String() != "router" || Host.String() != "host" {
		t.Error("NodeKind.String wrong")
	}
	if NodeKind(9).String() == "" {
		t.Error("unknown kind string empty")
	}
}
