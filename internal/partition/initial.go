package partition

import "math/rand"

// greedyGrow fills part with an initial k-way partition of g by greedy graph
// growing: parts 0..k-2 are grown one at a time from a random seed vertex,
// always absorbing the unassigned vertex with the strongest connection to the
// growing part, until the part reaches its weight target; the leftovers form
// part k-1. The result is feasible in assignment (every vertex gets a part)
// but may be slightly unbalanced; callers refine it.
func (ws *workspace) greedyGrow(g *Graph, part []int, rng *rand.Rand) {
	k, frac := ws.k, ws.frac
	n := g.NumVertices()
	for v := range part {
		part[v] = -1
	}
	total := g.TotalVWgt()
	f := &ws.frontier
	f.wgt, f.target = grow(f.wgt, g.Ncon), grow(f.target, g.Ncon)

	unassigned := n
	for p := 0; p < k-1 && unassigned > 0; p++ {
		// Part p's weight target under its capacity fraction.
		for c, t := range total {
			f.target[c] = float64(t) * frac[p]
		}
		// Reserve room: never grow a part so large that the remaining parts
		// cannot each receive at least one vertex.
		maxVertices := unassigned - (k - 1 - p)
		if maxVertices < 1 {
			maxVertices = 1
		}
		grown := f.growOnePart(g, part, p, maxVertices, rng)
		unassigned -= grown
	}
	for v := range part {
		if part[v] == -1 {
			part[v] = k - 1
		}
	}
}

// frontier is growOnePart's set of unassigned vertices adjacent to the
// growing part, with their connectivity to it.
type frontier struct {
	gain  []int64  // gain[v]: edge weight from v into the part, valid while mark[v] == gen
	mark  []uint64 // mark[v] == gen: v joined the frontier of the part being grown
	gen   uint64
	verts []int // the members; a vertex absorbed since it joined is dropped at the next scan
	// The growing part's weight per constraint and the target that ends its
	// growth (greedyGrow sets it).
	wgt, target []float64
}

// growOnePart grows part p from a random unassigned seed until any balance
// constraint reaches its target or maxVertices vertices have been absorbed.
// Returns the number of vertices assigned.
func (f *frontier) growOnePart(g *Graph, part []int, p int, maxVertices int, rng *rand.Rand) int {
	n := g.NumVertices()
	seed := -1
	// Pick a random unassigned seed.
	start := rng.Intn(n)
	for i := 0; i < n; i++ {
		v := (start + i) % n
		if part[v] == -1 {
			seed = v
			break
		}
	}
	if seed == -1 {
		return 0
	}

	wgt, target := f.wgt, f.target
	clear(wgt)
	f.gen++
	f.verts = f.verts[:0]
	assign := func(v int) {
		part[v] = p
		for c, w := range g.VWgt[v] {
			wgt[c] += float64(w)
		}
		for _, e := range g.Adj[v] {
			if part[e.To] != -1 {
				continue
			}
			if f.mark[e.To] != f.gen {
				f.mark[e.To], f.gain[e.To] = f.gen, 0
				f.verts = append(f.verts, e.To)
			}
			f.gain[e.To] += e.Wgt
		}
	}
	reachedTarget := func() bool {
		for c := range wgt {
			if target[c] > 0 && wgt[c] >= target[c] {
				return true
			}
		}
		return false
	}

	assign(seed)
	count := 1
	for count < maxVertices && !reachedTarget() {
		// Absorb the frontier vertex with maximal connectivity; if the
		// frontier is empty (disconnected graph), jump to a random
		// unassigned vertex.
		best, bestW := -1, int64(-1)
		live := f.verts[:0]
		for _, v := range f.verts {
			if part[v] != -1 {
				continue
			}
			live = append(live, v)
			if w := f.gain[v]; w > bestW || (w == bestW && v < best) {
				best, bestW = v, w
			}
		}
		f.verts = live
		if best == -1 {
			start := rng.Intn(n)
			for i := 0; i < n; i++ {
				v := (start + i) % n
				if part[v] == -1 {
					best = v
					break
				}
			}
			if best == -1 {
				break
			}
		}
		assign(best)
		count++
	}
	return count
}
