package partition

import "math/rand"

// level holds one rung of the multilevel hierarchy: the coarse graph and the
// mapping from the finer graph's vertices to coarse vertices.
type level struct {
	graph *Graph
	// fineToCoarse[v] is the coarse vertex that fine vertex v collapsed into.
	fineToCoarse []int
}

// heavyEdgeMatch computes a matching of g by the heavy-edge heuristic:
// vertices are visited in random order and each unmatched vertex matches its
// unmatched neighbor reachable over the heaviest edge. maxW, when non-nil,
// caps the combined weight of a matched pair per constraint — without the
// cap, repeated coarsening can fuse hot vertices into coarse lumps heavier
// than a whole part's budget, making balanced initial partitions impossible.
// Returns match[v] = the partner of v, or v itself if unmatched; the slice is
// the workspace's and lasts until the next matching.
func (ws *workspace) heavyEdgeMatch(g *Graph, rng *rand.Rand, maxW []int64) []int {
	n := g.NumVertices()
	ws.match, ws.perm = grow(ws.match, n), grow(ws.perm, n)
	match := ws.match
	for v := range match {
		match[v] = -1
	}
	for _, v := range ws.visitOrder(n, rng) {
		if match[v] != -1 {
			continue
		}
		best := -1
		var bestW int64 = -1
		for _, e := range g.Adj[v] {
			if match[e.To] != -1 || e.Wgt <= bestW {
				continue
			}
			if exceedsCap(g, v, e.To, maxW) {
				continue
			}
			best, bestW = e.To, e.Wgt
		}
		if best == -1 {
			match[v] = v
		} else {
			match[v] = best
			match[best] = v
		}
	}
	return match
}

// exceedsCap reports whether merging u and v would exceed the per-constraint
// coarse-vertex weight cap.
func exceedsCap(g *Graph, u, v int, maxW []int64) bool {
	if maxW == nil {
		return false
	}
	for c, limit := range maxW {
		if limit > 0 && g.VWgt[u][c]+g.VWgt[v][c] > limit {
			return true
		}
	}
	return false
}

// coarsenFast collapses g along the given matching and returns the coarse
// level. Matched pairs become one coarse vertex whose weight vector is the sum
// of the pair's; parallel edges between coarse vertices are merged by summing
// weights; edges internal to a pair disappear. The level is carved from the
// workspace's slabs and lasts until the next buildHierarchy.
func (ws *workspace) coarsenFast(g *Graph, match []int) level {
	n := g.NumVertices()
	fineToCoarse := take(&ws.f2c, n)
	for v := range fineToCoarse {
		fineToCoarse[v] = -1
	}
	members := grow(ws.members, n)[:0]
	for v := 0; v < n; v++ {
		if fineToCoarse[v] != -1 {
			continue
		}
		fineToCoarse[v] = len(members)
		pair := [2]int{v, -1}
		if m := match[v]; m != v {
			fineToCoarse[m] = len(members)
			pair[1] = m
		}
		members = append(members, pair)
	}
	ws.members = members
	numCoarse := len(members)

	cg := &take(&ws.graphs, 1)[0]
	*cg = Graph{Ncon: g.Ncon, VWgt: take(&ws.vrows, numCoarse), Adj: take(&ws.erows, numCoarse)}
	vwgt := take(&ws.vwgt, numCoarse*g.Ncon)
	clear(vwgt)
	// A coarse graph has at most the fine one's adjacency slots; what the
	// merge leaves unused goes back to the slab.
	edges := take(&ws.edges, g.halfEdges())
	used := 0
	ws.slot = grow(ws.slot, numCoarse)
	slot := ws.slot
	for cv := range slot {
		slot[cv] = -1
	}
	for cv, pair := range members {
		cg.VWgt[cv], vwgt = vwgt[:g.Ncon:g.Ncon], vwgt[g.Ncon:]
		start := used
		for _, v := range pair {
			if v == -1 {
				continue
			}
			for c, w := range g.VWgt[v] {
				cg.VWgt[cv][c] += w
			}
			for _, e := range g.Adj[v] {
				cu := fineToCoarse[e.To]
				if cu == cv {
					continue
				}
				if idx := slot[cu]; idx >= 0 {
					edges[idx].Wgt += e.Wgt
				} else {
					slot[cu] = used
					edges[used] = Edge{To: cu, Wgt: e.Wgt}
					used++
				}
			}
		}
		cg.Adj[cv] = edges[start:used:used]
		for _, e := range cg.Adj[cv] {
			slot[e.To] = -1
		}
	}
	ws.edges = ws.edges[:len(ws.edges)-len(edges)+used]
	return level{graph: cg, fineToCoarse: fineToCoarse}
}

// buildHierarchy coarsens g repeatedly until the coarse graph has at most
// coarseTo vertices or coarsening stops making progress (less than 8%
// shrinkage), returning the levels from finest to coarsest. levels[0].graph
// is the first coarse graph; the original g is not included. The hierarchy
// lives in the workspace and replaces the previous one.
func (ws *workspace) buildHierarchy(g *Graph, coarseTo int, rng *rand.Rand) []level {
	// Cap coarse-vertex weights at a few times the average weight of the
	// target coarse graph, so no coarse vertex approaches a part's budget.
	total := g.TotalVWgt()
	maxW := make([]int64, g.Ncon)
	for c, t := range total {
		maxW[c] = 4 * t / int64(coarseTo)
	}
	ws.graphs, ws.f2c, ws.vwgt, ws.vrows = ws.graphs[:0], ws.f2c[:0], ws.vwgt[:0], ws.vrows[:0]
	ws.edges, ws.erows, ws.levels = ws.edges[:0], ws.erows[:0], ws.levels[:0]
	cur := g
	for cur.NumVertices() > coarseTo {
		match := ws.heavyEdgeMatch(cur, rng, maxW)
		lv := ws.coarsenFast(cur, match)
		if lv.graph.NumVertices() > cur.NumVertices()*92/100 {
			// Matching has stalled (e.g. a star graph); stop coarsening.
			break
		}
		ws.levels = append(ws.levels, lv)
		cur = lv.graph
	}
	return ws.levels
}
