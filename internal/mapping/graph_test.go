package mapping

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/netgraph"
	"repro/internal/partition"
	"repro/internal/topogen"
)

// TestBaseGraphMatchesAddEdge checks that baseGraph's rows, carved from one
// slab at each node's link count, hold what NewGraph and AddEdge grow link by
// link, with every weight zero, on a network whose parallel links merge into
// one edge (a row shorter than its count), whose self loop drops and whose
// last router is isolated.
func TestBaseGraphMatchesAddEdge(t *testing.T) {
	nw := netgraph.New("parallel")
	for i := 0; i < 5; i++ {
		nw.AddRouter(fmt.Sprint("r", i), 1)
	}
	for _, l := range [][2]int{{0, 1}, {1, 2}, {0, 1}, {2, 2}, {3, 0}, {1, 0}, {2, 3}} {
		nw.AddLink(l[0], l[1], 1e9, 1e-3)
	}
	for _, ncon := range []int{1, 3} {
		want := partition.NewGraph(nw.NumNodes(), ncon)
		for _, l := range nw.Links {
			want.AddEdge(l.A, l.B, 0)
		}
		got := baseGraph(nw, ncon)
		if got.Ncon != ncon || len(got.VWgt) != nw.NumNodes() || len(got.Adj) != nw.NumNodes() {
			t.Fatalf("ncon %d, %d weight rows and %d adjacency rows, want %d, %d, %d",
				got.Ncon, len(got.VWgt), len(got.Adj), ncon, nw.NumNodes(), nw.NumNodes())
		}
		for v := range got.Adj {
			if !slices.Equal(got.Adj[v], want.Adj[v]) || !slices.Equal(got.VWgt[v], make([]int64, ncon)) {
				t.Fatalf("ncon %d: vertex %d has row %v and weights %v, AddEdge grows %v under zero weights",
					ncon, v, got.Adj[v], got.VWgt[v], want.Adj[v])
			}
		}
	}
}

// TestBaseGraphBytes is the bytes gate of the partition graph's build on
// ScaleFree networks of 10³ and 10⁴ routers: the adjacency is allocated once,
// 16 B per half edge and two half edges per link, plus the row headers,
// beside the vertex weights with their row headers and a 4 B degree count per
// node. Growing each row by append, as AddEdge does, takes about twice the
// adjacency and fails it.
func TestBaseGraphBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are the race detector's under -race")
	}
	const ncon = 2
	for _, routers := range []int{1_000, 10_000} {
		nw, err := topogen.ScaleFree(topogen.ScaleFreeConfig{Routers: routers, Hosts: 100, LinksPerNewRouter: 2, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		n, links := uint64(nw.NumNodes()), uint64(len(nw.Links))
		adjacency := 2*links*16 + n*24
		const slack = 4*8<<10 + 1<<10 // four large slabs round up to 8 KiB pages; the graph header
		budget := adjacency + n*ncon*8 + n*24 + n*4 + slack
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g := baseGraph(nw, ncon)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
			t.Errorf("%d routers, %d links: baseGraph allocated %d B, budget %d B (adjacency %d B)", routers, links, grew, budget, adjacency)
		} else {
			t.Logf("%d routers, %d links: baseGraph allocated %d B, budget %d B (adjacency %d B)", routers, links, grew, budget, adjacency)
		}
		runtime.KeepAlive(g)
	}
}
