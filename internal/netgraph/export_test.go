package netgraph

// IncidentLinks returns the IDs of links touching node n: the adjacency the
// reference Dijkstra of routing_equiv_test walks.
func (nw *Network) IncidentLinks(n int) []int { return nw.adj[n] }

// lruStats is a snapshot of a lazy oracle's column cache. The oracle counts
// nothing, so Evictions is read off the free list: the evicted columns
// parked there for reuse, at least one from the first overflow of the cache
// on (a miss takes the parked column back and the overflow it causes parks
// the least recent one).
type lruStats struct {
	Destinations, Capacity, Evictions int
}

func (l *LazyRouting) stats() lruStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := lruStats{Destinations: len(l.cols), Capacity: l.capCols}
	for c := l.free; c != nil; c = c.next {
		s.Evictions++
	}
	return s
}

// lru lists the resident columns, most recently used first.
func (l *LazyRouting) lru() []*lazyCol {
	l.mu.Lock()
	defer l.mu.Unlock()
	var cols []*lazyCol
	for c := l.head; c != nil; c = c.next {
		cols = append(cols, c)
	}
	return cols
}
