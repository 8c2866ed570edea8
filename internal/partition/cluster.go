package partition

import (
	"math/rand"
	"sort"
)

// Cluster groups g's vertices into at most k clusters and returns a label
// per vertex in [0, clusters). It reuses the multilevel partitioner's first
// phase: repeated heavy-edge-match coarsening, which only ever merges
// vertices across an edge — so every cluster is internally connected (on a
// connected graph) and heavy (strong-affinity) edges collapse first. When
// matching stalls above k (star-like graphs), the remaining coarse vertices
// are merged greedily, lightest first, into their most strongly connected
// neighbor.
//
// Coarse-vertex weights are capped at 4·total/k per constraint, keeping the
// clusters roughly balanced — the property that makes two-level routing's
// Σ cluster² memory close to its n²/k minimum.
//
// Deterministic for a given (g, k, seed).
func Cluster(g *Graph, k int, seed int64) []int {
	n := g.NumVertices()
	labels := make([]int, n)
	for v := range labels {
		labels[v] = v
	}
	if k < 1 {
		k = 1
	}
	if n <= k {
		return labels
	}
	rng := rand.New(rand.NewSource(seed))
	total := g.TotalVWgt()
	maxW := make([]int64, g.Ncon)
	for c, t := range total {
		maxW[c] = 4 * t / int64(k)
	}
	var ws workspace
	cur := g
	for cur.NumVertices() > k {
		match := ws.heavyEdgeMatch(cur, rng, maxW)
		lv := ws.coarsenFast(cur, match)
		if lv.graph.NumVertices() >= cur.NumVertices() {
			break // no progress at all
		}
		for v := range labels {
			labels[v] = lv.fineToCoarse[labels[v]]
		}
		stalled := lv.graph.NumVertices() > cur.NumVertices()*92/100
		cur = lv.graph
		if stalled {
			break
		}
	}
	merged := mergeDown(cur, k)
	// Compose, then compact to a dense [0, clusters) range in root order.
	compact := make(map[int]int)
	for v := range labels {
		root := merged[labels[v]]
		if _, ok := compact[root]; !ok {
			compact[root] = 0
		}
	}
	roots := make([]int, 0, len(compact))
	for root := range compact {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	for i, root := range roots {
		compact[root] = i
	}
	for v := range labels {
		labels[v] = compact[merged[labels[v]]]
	}
	return labels
}

// mergeDown reduces g's vertices to at most k groups by greedy merging,
// returning a root label per vertex. Identity when g is already small
// enough.
func mergeDown(g *Graph, k int) []int {
	c := g.NumVertices()
	root := make([]int, c)
	for v := range root {
		root[v] = v
	}
	if c <= k {
		return root
	}
	var find func(int) int
	find = func(v int) int {
		if root[v] != v {
			root[v] = find(root[v])
		}
		return root[v]
	}
	weight := make([]int64, c)
	for v := 0; v < c; v++ {
		if g.Ncon > 0 {
			weight[v] = g.VWgt[v][0]
		} else {
			weight[v] = 1
		}
	}
	alive := c
	conn := make(map[int]int64)
	for alive > k {
		// Lightest live root.
		s := -1
		for v := 0; v < c; v++ {
			if find(v) == v && (s == -1 || weight[v] < weight[s] || (weight[v] == weight[s] && v < s)) {
				s = v
			}
		}
		// Its most strongly connected neighboring root.
		clear(conn)
		for v := 0; v < c; v++ {
			rv := find(v)
			for _, e := range g.Adj[v] {
				ru := find(e.To)
				if rv == ru {
					continue
				}
				if rv == s {
					conn[ru] += e.Wgt
				} else if ru == s {
					conn[rv] += e.Wgt
				}
			}
		}
		t := -1
		var tw int64 = -1
		for u, w := range conn {
			if w > tw || (w == tw && (t == -1 || u < t)) {
				t, tw = u, w
			}
		}
		if t == -1 {
			// s is isolated (disconnected graph): fold it into the lightest
			// other root so the cluster count still lands at k.
			for v := 0; v < c; v++ {
				if v != s && find(v) == v && (t == -1 || weight[v] < weight[t] || (weight[v] == weight[t] && v < t)) {
					t = v
				}
			}
			if t == -1 {
				break
			}
		}
		root[s] = t
		weight[t] += weight[s]
		alive--
	}
	for v := range root {
		root[v] = find(v)
	}
	return root
}
