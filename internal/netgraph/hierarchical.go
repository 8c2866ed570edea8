package netgraph

import (
	"fmt"
	"sort"

	"repro/internal/parallel"
	"repro/internal/partition"
)

// HierarchicalTable routes in two levels, the way MaSSF's AS-structured
// networks do (and the reason the paper's router memory model is
// m = 10 + x² with x the AS router count, §2.2.2):
//
//   - within a group (an AS, or an auto-generated cluster), nodes follow
//     latency-shortest paths computed over the group's own subgraph only —
//     each node's table is O(per-group nodes²), not O(network²);
//   - across groups, a group-level shortest-path table picks the next group
//     and the border link into it; inside the current group, traffic steers
//     to that border link's local endpoint.
//
// Total memory is O(Σ group² + groups²) — with balanced auto-clustering at
// C ≈ (n²/2)^(1/3) groups that is O(n^(4/3)), sub-quadratic. Routes are
// loop-free (the group-level path strictly progresses and intra-group
// shortest paths toward a fixed gateway are consistent) but can be longer
// than flat shortest paths — exactly the inflation hierarchical routing
// trades for table size.
type HierarchicalTable struct {
	nw *Network
	// kind labels the grouping for Stats: "hier-as" or "hier-cluster".
	kind string
	// asOf[n] is the group label of node n (the AS number for per-AS tables,
	// a cluster id for auto-clustered ones).
	asOf []int
	// asIDs is the sorted list of distinct labels; asIdx maps label -> index.
	asIDs []int
	asIdx map[int]int
	// intra[a] holds the intra-group routing for group index a: the next-hop
	// link between the group's member nodes (indexed by member position,
	// intra[a][si*m+di] for a group of m members).
	intra [][]int32
	// member[a] lists node IDs of group index a; memberIdx[n] is n's position
	// within its group.
	member    [][]int
	memberIdx []int
	// nextAS[a*len(asIDs)+b] is the next group index on the path a -> b, -1
	// if unreachable or a == b.
	nextAS []int
	// gateway[a*len(asIDs)+b] is the border link used to leave group index a
	// toward (neighboring, next) group index b.
	gateway []int32
}

// BuildHierarchicalRouting constructs the two-level table over the nodes'
// Node.AS labels, computing the per-AS intra tables concurrently (GOMAXPROCS
// workers). Every AS subgraph should be internally connected for full
// reachability (nodes that cannot reach their AS border are simply
// unreachable from outside, mirroring a real misconfigured AS).
func (nw *Network) BuildHierarchicalRouting() *HierarchicalTable {
	return nw.BuildHierarchicalRoutingParallel(0)
}

// BuildHierarchicalRoutingParallel is BuildHierarchicalRouting with an
// explicit worker count for the per-AS fan-out: non-positive means
// GOMAXPROCS, 1 the exact sequential build. Each AS writes only its own
// intra-table slot, so the result is identical regardless of worker count.
func (nw *Network) BuildHierarchicalRoutingParallel(workers int) *HierarchicalTable {
	labels := make([]int, len(nw.Nodes))
	for _, node := range nw.Nodes {
		labels[node.ID] = node.AS
	}
	return nw.buildTwoLevel(labels, workers, "hier-as")
}

// BuildClusteredRouting constructs the two-level table for a topology
// without (usable) AS labels: nodes are grouped into at most clusters
// internally-connected clusters by the multilevel partitioner's heavy-edge
// coarsening over link proximity (low latency = strong affinity), and the
// two-level machinery runs over those labels. Cluster counts below 2 are
// rejected with ErrRoutingConfig. The clustering is deterministic for a
// given topology.
func (nw *Network) BuildClusteredRouting(clusters int) (*HierarchicalTable, error) {
	return nw.BuildClusteredRoutingParallel(clusters, 0)
}

// BuildClusteredRoutingParallel is BuildClusteredRouting with an explicit
// worker count for the per-cluster fan-out.
func (nw *Network) BuildClusteredRoutingParallel(clusters, workers int) (*HierarchicalTable, error) {
	if clusters < 2 {
		return nil, fmt.Errorf("%w: cluster count %d, must be >= 2", ErrRoutingConfig, clusters)
	}
	return nw.buildTwoLevel(nw.clusterLabels(clusters), workers, "hier-cluster"), nil
}

// clusterLabels groups the nodes into at most k clusters by coarsening the
// proximity graph: edge weight ∝ 1/latency, so low-latency neighborhoods
// collapse together first — the same heavy-edge heuristic the partitioner's
// first phase uses, which guarantees internally-connected clusters.
func (nw *Network) clusterLabels(k int) []int {
	g := partition.NewGraph(len(nw.Nodes), 1)
	for _, l := range nw.Links {
		lat := l.Latency
		if lat < 1e-6 {
			lat = 1e-6
		}
		w := int64(1e-2 / lat)
		if w < 1 {
			w = 1
		}
		if w > 1e6 {
			w = 1e6
		}
		g.AddEdge(l.A, l.B, w)
	}
	// Fixed seed: the clustering is part of the deterministic routing build
	// (distributed workers must reproduce the coordinator's table exactly).
	return partition.Cluster(g, k, 1)
}

// buildTwoLevel builds the two-level table over arbitrary group labels
// (labels[n] is node n's group).
func (nw *Network) buildTwoLevel(labels []int, workers int, kind string) *HierarchicalTable {
	nw.builds.Add(1)
	n := len(nw.Nodes)
	h := &HierarchicalTable{
		nw:        nw,
		kind:      kind,
		asOf:      labels,
		asIdx:     make(map[int]int),
		memberIdx: make([]int, n),
	}
	seen := map[int]bool{}
	for _, node := range nw.Nodes {
		if !seen[labels[node.ID]] {
			seen[labels[node.ID]] = true
			h.asIDs = append(h.asIDs, labels[node.ID])
		}
	}
	sort.Ints(h.asIDs)
	for i, as := range h.asIDs {
		h.asIdx[as] = i
	}
	numAS := len(h.asIDs)
	h.member = make([][]int, numAS)
	for _, node := range nw.Nodes {
		a := h.asIdx[labels[node.ID]]
		h.memberIdx[node.ID] = len(h.member[a])
		h.member[a] = append(h.member[a], node.ID)
	}

	// Intra-group shortest paths per subgraph, one independent Dijkstra
	// sweep per group; each worker reuses one scratch across its groups.
	h.intra = make([][]int32, numAS)
	w := parallel.Workers(workers, numAS)
	scratches := make([]*dijkstraScratch, w)
	parallel.ForEachWorker(numAS, w, func(worker, a int) {
		s := scratches[worker]
		if s == nil {
			s = newDijkstraScratch(len(h.member[a]))
			scratches[worker] = s
		}
		h.intra[a] = nw.intraDijkstraAll(h, a, s)
	})

	// Group-level graph: min-latency border link per group pair.
	type asEdge struct {
		latency float64
		link    int32
	}
	border := make(map[[2]int]asEdge)
	for _, l := range nw.Links {
		a, b := h.asIdx[h.asOf[l.A]], h.asIdx[h.asOf[l.B]]
		if a == b {
			continue
		}
		for _, key := range [][2]int{{a, b}, {b, a}} {
			cur, ok := border[key]
			if !ok || l.Latency < cur.latency || (l.Latency == cur.latency && int32(l.ID) < cur.link) {
				border[key] = asEdge{latency: l.Latency, link: int32(l.ID)}
			}
		}
	}

	// Group-level all-pairs shortest paths, tracking the first group hop.
	// One Dijkstra per source group over the border graph — O(C·E_C·log C)
	// instead of Floyd–Warshall's O(C³), which matters once auto-clustering
	// pushes C into the thousands.
	type interEdge struct {
		to  int
		lat float64
	}
	adj := make([][]interEdge, numAS)
	keys := make([][2]int, 0, len(border))
	for key := range border {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		adj[key[0]] = append(adj[key[0]], interEdge{to: key[1], lat: border[key].latency})
	}
	next := make([]int, numAS*numAS)
	for i := range next {
		next[i] = -1
	}
	s := newDijkstraScratch(numAS)
	for a := 0; a < numAS; a++ {
		s.reset(numAS)
		dist, firstHop, done := s.dist, s.firstLink, s.done
		dist[a] = 0
		s.push(pqItem{node: a})
		for len(s.heap) > 0 {
			v := s.pop().node
			if done[v] {
				continue
			}
			done[v] = true
			for _, e := range adj[v] {
				nd := dist[v] + e.lat
				f := firstHop[v]
				if v == a {
					f = int32(e.to)
				}
				// Deterministic tie-break on the first next-group index.
				if nd < dist[e.to] || (nd == dist[e.to] && !done[e.to] && firstHop[e.to] > f) {
					dist[e.to] = nd
					firstHop[e.to] = f
					s.push(pqItem{node: e.to, dist: nd})
				}
			}
		}
		row := next[a*numAS : a*numAS+numAS]
		for b := 0; b < numAS; b++ {
			if b != a {
				row[b] = int(firstHop[b])
			}
		}
	}
	h.nextAS = next
	h.gateway = make([]int32, numAS*numAS)
	for i := range h.gateway {
		h.gateway[i] = -1
	}
	for key, e := range border {
		h.gateway[key[0]*numAS+key[1]] = e.link
	}
	return h
}

// intraDijkstraAll computes all-pairs next-hop routing within one group
// subgraph, reusing the caller's scratch across the group's sources.
func (nw *Network) intraDijkstraAll(h *HierarchicalTable, a int, s *dijkstraScratch) []int32 {
	members := h.member[a]
	m := len(members)
	next := make([]int32, m*m)
	for si := range members {
		s.reset(m)
		dist, first, done := s.dist, s.firstLink, s.done
		dist[si] = 0
		s.push(pqItem{node: si})
		for len(s.heap) > 0 {
			vi := s.pop().node
			if done[vi] {
				continue
			}
			done[vi] = true
			v := members[vi]
			for _, lid := range nw.adj[v] {
				l := &nw.Links[lid]
				u := l.Other(v)
				if h.asIdx[h.asOf[u]] != a {
					continue // border link: not part of the intra table
				}
				ui := h.memberIdx[u]
				nd := dist[vi] + l.Latency
				f := first[vi]
				if vi == si {
					f = int32(lid)
				}
				if nd < dist[ui] || (nd == dist[ui] && !done[ui] && first[ui] > f) {
					dist[ui] = nd
					first[ui] = f
					s.push(pqItem{node: ui, dist: nd})
				}
			}
		}
		copy(next[si*m:si*m+m], first)
		next[si*m+si] = -1
	}
	return next
}

// NextLink implements Routing.
func (h *HierarchicalTable) NextLink(src, dst int) int {
	if src == dst {
		return -1
	}
	a := h.asIdx[h.asOf[src]]
	b := h.asIdx[h.asOf[dst]]
	if a == b {
		m := len(h.member[a])
		return int(h.intra[a][h.memberIdx[src]*m+h.memberIdx[dst]])
	}
	numAS := len(h.asIDs)
	na := h.nextAS[a*numAS+b]
	if na < 0 {
		return -1
	}
	gw := h.gateway[a*numAS+na]
	if gw < 0 {
		return -1
	}
	l := h.nw.Links[gw]
	// The gateway link's endpoint inside this group.
	exit := l.A
	if h.asIdx[h.asOf[exit]] != a {
		exit = l.B
	}
	if exit == src {
		return int(gw)
	}
	m := len(h.member[a])
	return int(h.intra[a][h.memberIdx[src]*m+h.memberIdx[exit]])
}

// MemoryBytes implements Routing: the per-group intra tables (4 bytes per
// intra pair) plus the group-level next-group and gateway matrices.
func (h *HierarchicalTable) MemoryBytes() int64 {
	var b int64
	for _, t := range h.intra {
		b += int64(len(t)) * 4
	}
	b += int64(len(h.nextAS)) * 8
	b += int64(len(h.gateway)) * 4
	b += int64(len(h.asOf))*8 + int64(len(h.memberIdx))*8
	for _, m := range h.member {
		b += int64(len(m)) * 8
	}
	return b
}

// Stats implements Routing.
func (h *HierarchicalTable) Stats() RoutingStats {
	n := len(h.asOf)
	return RoutingStats{
		Backend:     h.kind,
		MemoryBytes: h.MemoryBytes(),
		Sources:     n,
		Capacity:    n,
	}
}

// Clusters returns the number of groups (ASes or auto-generated clusters)
// the table routes between.
func (h *HierarchicalTable) Clusters() int { return len(h.asIDs) }

// TableEntries returns the number of routing-table entries node n must hold
// under hierarchical routing: per-group all-pairs entries plus one entry per
// foreign group — the quantity the paper's 10 + x² memory weight models.
func (h *HierarchicalTable) TableEntries(n int) int {
	a := h.asIdx[h.asOf[n]]
	return len(h.member[a]) + (len(h.asIDs) - 1)
}
