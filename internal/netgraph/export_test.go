package netgraph

import "fmt"

// IncidentLinks returns the IDs of links touching node n: the adjacency the
// reference Dijkstra of routing_equiv_test walks.
func (nw *Network) IncidentLinks(n int) []int { return nw.adj[n] }

// BuildRouting constructs a fresh route oracle for the given options,
// resolving the automatic policy against the network's size, outside the
// SharedRouting cache.
func (nw *Network) BuildRouting(o RoutingOptions) (Routing, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return nw.buildRouting(o.normalized(len(nw.Nodes)))
}

// SharedRoutingTable returns the network's memoized flat routing table: the
// flat entry of the SharedRouting cache.
func (nw *Network) SharedRoutingTable() *RoutingTable {
	r, err := nw.SharedRouting(RoutingOptions{Backend: Flat})
	if err != nil {
		panic(fmt.Sprintf("netgraph: SharedRoutingTable: %v", err))
	}
	return r.(*RoutingTable)
}

// lruStats is a snapshot of a lazy oracle's row cache.
type lruStats struct {
	Sources, Capacity       int
	Hits, Misses, Evictions int64
}

func (l *LazyRouting) stats() lruStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return lruStats{len(l.rows), l.capRows, l.hits, l.misses, l.evictions}
}
