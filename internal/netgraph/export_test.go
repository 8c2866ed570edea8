package netgraph

// IncidentLinks returns the IDs of links touching node n: the adjacency the
// reference Dijkstra of routing_equiv_test walks.
func (nw *Network) IncidentLinks(n int) []int { return nw.adj[n] }

// lruStats is a snapshot of a lazy oracle's row cache. The oracle counts
// nothing, so Evictions is read off the free list: the evicted rows parked
// there for reuse, at least one from the first overflow of the cache on
// (a miss takes the parked row back and the overflow it causes parks the
// least recent one).
type lruStats struct {
	Sources, Capacity, Evictions int
}

func (l *LazyRouting) stats() lruStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := lruStats{Sources: len(l.rows), Capacity: l.capRows}
	for r := l.free; r != nil; r = r.next {
		s.Evictions++
	}
	return s
}

// lru lists the resident rows, most recently used first.
func (l *LazyRouting) lru() []*lazyRow {
	l.mu.Lock()
	defer l.mu.Unlock()
	var rows []*lazyRow
	for r := l.head; r != nil; r = r.next {
		rows = append(rows, r)
	}
	return rows
}
