package netgraph

import "errors"

// Routing is the route-oracle contract the emulator, the mapping approaches,
// and the route discovery consume: static latency-shortest paths, the
// paper's Dijkstra routing. LazyRouting is the implementation; the interface
// lets a caller wrap it (a counting or deliberately broken oracle in a test).
// Implementations are safe for concurrent queries after construction.
type Routing interface {
	// NextLink returns the first-hop link from src toward dst, or -1 when
	// src == dst or dst is unreachable.
	NextLink(src, dst int) int
	// MemoryBytes reports the oracle's current table footprint in bytes
	// (backing arrays only, not Go object headers). For LazyRouting it
	// changes as destination columns are cached and evicted.
	MemoryBytes() int64
}

var _ Routing = (*LazyRouting)(nil)

// ErrRoutingConfig reports an infeasible routing configuration — a negative
// LRU size. Callers test with errors.Is.
var ErrRoutingConfig = errors.New("netgraph: bad routing config")

// DefaultLazyBytes is the column-cache budget of the oracle: 256 MB at 4·k
// bytes a destination column over the k routing-core nodes, so every paper
// topology keeps all of its columns and 10⁵ routers keep 671.
const DefaultLazyBytes = 256 << 20

// DefaultLazyColumns returns the column capacity for k routing-core nodes:
// the DefaultLazyBytes budget divided by 4·k bytes a column, never above k
// (a cache that holds every column never evicts) and never below 1.
func DefaultLazyColumns(k int) int {
	return max(1, min(k, DefaultLazyBytes/(4*max(k, 1))))
}

// SharedRouting returns the network's memoized route oracle, building it on
// first use and after any topology mutation (AddLink / AddRouter / AddHost
// bump the generation), so every consumer of one topology — mapping,
// emulation, route discovery — shares one set of cached columns. Safe for
// concurrent use; do not mutate the topology while runs are in flight.
func (nw *Network) SharedRouting() *LazyRouting {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if gen := nw.gen.Load(); nw.shared == nil || nw.sharedGen != gen {
		nw.shared, nw.sharedGen = newLazyRouting(nw, 0), gen
		nw.builds.Add(1)
	}
	return nw.shared
}

// RoutingBuilds counts the oracles SharedRouting has built for the network.
func (nw *Network) RoutingBuilds() int64 { return nw.builds.Load() }
