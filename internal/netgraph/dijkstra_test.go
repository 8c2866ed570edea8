package netgraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomASNetwork builds a connected multi-AS topology with deliberately
// repeated latency values, so equal-distance ties (the case the deterministic
// tie-break exists for) actually occur.
func randomASNetwork(t *testing.T, routers, hosts, ases int, seed int64) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw := New(fmt.Sprintf("rand-%d", seed))
	latencies := []float64{1e-3, 2e-3, 5e-3, 1e-3, 2e-3} // repeats force ties
	for r := 0; r < routers; r++ {
		id := nw.AddRouter(fmt.Sprintf("r%d", r), r%ases)
		if id > 0 {
			// Spanning chain keeps the network connected.
			nw.AddLink(id, rng.Intn(id), 1e9, latencies[rng.Intn(len(latencies))])
		}
	}
	for extra := 0; extra < routers; extra++ {
		a, b := rng.Intn(routers), rng.Intn(routers)
		if a != b {
			nw.AddLink(a, b, 1e9, latencies[rng.Intn(len(latencies))])
		}
	}
	for h := 0; h < hosts; h++ {
		r := rng.Intn(routers)
		id := nw.AddHost(fmt.Sprintf("h%d", h), nw.Nodes[r].AS)
		nw.AddLink(id, r, 100e6, 0.1e-3)
	}
	if err := nw.Validate(); err != nil {
		t.Fatalf("random network invalid: %v", err)
	}
	return nw
}

// TestDijkstraScratchAllocFree is the allocs/op guard on the new inner loop:
// with the scratch warmed up, a full single-source Dijkstra allocates
// nothing — the property that makes a row miss allocation-lean.
func TestDijkstraScratchAllocFree(t *testing.T) {
	nw := randomASNetwork(t, 50, 40, 4, 7)
	n := nw.NumNodes()
	next := make([]int32, n)
	parent := nw.leafParents()
	s := newDijkstraScratch(n)
	src := 0
	allocs := testing.AllocsPerRun(20, func() {
		nw.dijkstraRow(src, next, parent, s)
		src = (src + 1) % nw.NumRouters() // routers come first; hosts are leaves
	})
	if allocs != 0 {
		t.Errorf("dijkstra allocates %.1f objects per source with a warm scratch, want 0", allocs)
	}
}

// TestScratchHeapOrdering sanity-checks the hand-rolled 4-ary heap against
// the (dist, node) total order on adversarial push patterns.
func TestScratchHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := newDijkstraScratch(8)
	for round := 0; round < 50; round++ {
		s.reset(8)
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			// Few distinct distances: plenty of ties broken by node.
			s.push(pqItem{node: rng.Intn(10), dist: float64(rng.Intn(4))})
		}
		prev := s.pop()
		for len(s.heap) > 0 {
			cur := s.pop()
			if pqLess(cur, prev) {
				t.Fatalf("heap popped %v after %v (out of order)", cur, prev)
			}
			prev = cur
		}
	}
}
