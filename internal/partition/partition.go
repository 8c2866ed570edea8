package partition

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Options controls the multilevel partitioner. The zero value selects
// sensible defaults for every field.
type Options struct {
	// Seed drives all randomized choices (matching order, growing seeds,
	// refinement visit order). Identical inputs and seeds give identical
	// partitions.
	Seed int64
	// Imbalance is the tolerated per-constraint load imbalance ε: every part
	// may weigh at most (1+ε)·total/k on every constraint. Default 0.05;
	// NaN and +Inf are errors.
	Imbalance float64
	// CoarsenTo stops coarsening once the graph has at most this many
	// vertices. Default max(20·k, 120).
	CoarsenTo int
	// Restarts is the number of random initial partitions tried on the
	// coarsest graph. Default 8.
	Restarts int
	// RefinePasses bounds the refinement passes per level. Default 10.
	RefinePasses int
	// PartFractions optionally sets heterogeneous target part weights
	// (METIS's tpwgts): part p should receive PartFractions[p] of every
	// constraint's total. len must equal k and entries sum to 1; nil means
	// uniform. Used to map onto simulation engines of unequal speed — the
	// capability the paper's §5 notes MaSSF lacked.
	PartFractions []float64
}

func (o Options) withDefaults(k int) (Options, error) {
	if math.IsNaN(o.Imbalance) || math.IsInf(o.Imbalance, 1) {
		return o, fmt.Errorf("partition: Imbalance = %v, must be finite", o.Imbalance)
	}
	if o.Imbalance <= 0 {
		o.Imbalance = 0.05
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 20 * k
		if o.CoarsenTo < 120 {
			o.CoarsenTo = 120
		}
	}
	if o.Restarts <= 0 {
		o.Restarts = 8
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 10
	}
	return o, nil
}

// Partitioner is a multilevel partitioner that keeps its scratch memory —
// refinement workspace, coarsening hierarchy, projection buffers, random
// source — between calls, for a caller that partitions many graphs of one
// size in a row. The zero value is ready to use. A Partitioner must not be
// used by two goroutines at once; what a call returns does not depend on the
// calls before it (the random source is reseeded and the workspace reset for
// each), so partitioners may be pooled — internal/mapping keeps its in an
// idle list — and whichever one serves a call, the answer is the same.
type Partitioner struct {
	ws  workspace
	rng *rand.Rand
}

// Partition is the one-shot form of Partitioner.Partition.
func Partition(g *Graph, k int, opts Options) ([]int, error) {
	return new(Partitioner).Partition(g, k, opts)
}

// Partition splits g into k parts, minimizing the weight of cut edges while
// keeping every balance constraint within Options.Imbalance of perfect. It
// returns part[v] ∈ [0,k) for every vertex, in a slice the caller owns. It
// only reads g, so concurrent partitions may share one graph.
//
// Errors: k < 1, k > number of vertices (a part would necessarily be empty),
// or an Imbalance that is NaN or +Inf.
func (pt *Partitioner) Partition(g *Graph, k int, opts Options) ([]int, error) {
	opts, err := opts.withDefaults(k)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	switch {
	case k < 1:
		return nil, fmt.Errorf("partition: k = %d, must be >= 1", k)
	case k > n:
		return nil, fmt.Errorf("partition: k = %d exceeds vertex count %d", k, n)
	case n == 0:
		return nil, errors.New("partition: empty graph")
	case k == 1:
		return make([]int, n), nil
	case k == n:
		part := make([]int, n)
		for v := range part {
			part[v] = v
		}
		return part, nil
	}

	if pt.rng == nil {
		pt.rng = rand.New(rand.NewSource(opts.Seed))
	} else {
		pt.rng.Seed(opts.Seed) // draws what a new source of that seed draws
	}
	ws, rng := &pt.ws, pt.rng
	ws.reset(g, k, opts.PartFractions)

	// Phase 1: coarsen.
	levels := ws.buildHierarchy(g, opts.CoarsenTo, rng)
	coarsest := g
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].graph
	}

	// Phase 2: initial partition on the coarsest graph, best of Restarts.
	part, spare := ws.initialPartition(coarsest, opts, rng)

	// Phase 3: uncoarsen, refining at every level.
	for i := len(levels) - 1; i >= 0; i-- {
		finer := g
		if i > 0 {
			finer = levels[i-1].graph
		}
		part, spare = project(spare, part, levels[i].fineToCoarse), part
		ws.refine(finer, part, opts.Imbalance, opts.RefinePasses, rng)
		ws.rebalance(finer, part, opts.Imbalance)
	}
	if len(levels) == 0 {
		ws.refine(g, part, opts.Imbalance, opts.RefinePasses, rng)
		ws.rebalance(g, part, opts.Imbalance)
	}
	// Final polish: anneal the balance ceiling downward. Refinement parks
	// just under whatever ceiling it is given, so a single tolerance leaves
	// the result at (1+ε) rather than near-perfect balance; tightening in
	// steps (ending at METIS's k-way default of 3%) converges close to even
	// without wedging the way a tight ceiling from the start does.
	target := opts.Imbalance
	if target > 0.03 {
		target = 0.03
	}
	for _, eps := range []float64{opts.Imbalance, (opts.Imbalance + target) / 2, target} {
		if eps > opts.Imbalance {
			continue
		}
		ws.rebalance(g, part, eps)
		ws.refine(g, part, eps, opts.RefinePasses, rng)
	}
	ws.rebalance(g, part, target)
	ensureNonEmpty(g, part, k)
	return append([]int(nil), part...), nil
}

// initialPartition tries Restarts greedy growings of the coarsest graph and
// keeps the best result: feasible (within balance) partitions are preferred,
// then lower edge cut, then lower max-norm imbalance. It returns the best and
// the workspace's other assignment buffer, for the projection to fill.
func (ws *workspace) initialPartition(g *Graph, opts Options, rng *rand.Rand) (best, spare []int) {
	part, best := ws.parts[0][:g.NumVertices()], ws.parts[1][:g.NumVertices()]
	var bestCut int64
	var bestNorm float64
	bestFeasible := false

	for r := 0; r < opts.Restarts; r++ {
		ws.greedyGrow(g, part, rng)
		ws.refine(g, part, opts.Imbalance, opts.RefinePasses, rng)
		ws.rebalance(g, part, opts.Imbalance)
		cut := EdgeCut(g, part)
		norm := ws.maxNorm() // rebalance left part loaded
		feasible := norm <= 1+opts.Imbalance+1e-9
		better := false
		switch {
		case r == 0:
			better = true
		case feasible && !bestFeasible:
			better = true
		case feasible == bestFeasible && cut < bestCut:
			better = true
		case feasible == bestFeasible && cut == bestCut && norm < bestNorm:
			better = true
		}
		if better {
			best, part = part, best
			bestCut, bestNorm, bestFeasible = cut, norm, feasible
		}
	}
	return best, part
}

// project maps a coarse partition back to the finer graph, into dst's array
// (which must hold len(fineToCoarse) entries and not be coarsePart's).
func project(dst, coarsePart, fineToCoarse []int) []int {
	dst = dst[:len(fineToCoarse)]
	for v, cv := range fineToCoarse {
		dst[v] = coarsePart[cv]
	}
	return dst
}

// ensureNonEmpty guarantees every part owns at least one vertex by donating
// the least-connected vertex of the largest part to each empty part. This is
// a rare fallback (refinement never empties parts) but projection from a
// pathological coarse partition could.
func ensureNonEmpty(g *Graph, part []int, k int) {
	sizes := partSizes(part, k)
	for p := 0; p < k; p++ {
		if sizes[p] > 0 {
			continue
		}
		// Donate from the largest part.
		donor := 0
		for q := 1; q < k; q++ {
			if sizes[q] > sizes[donor] {
				donor = q
			}
		}
		bestV := -1
		var bestExt int64
		for v, q := range part {
			if q != donor {
				continue
			}
			var internal int64
			for _, e := range g.Adj[v] {
				if part[e.To] == donor {
					internal += e.Wgt
				}
			}
			if bestV == -1 || internal < bestExt {
				bestV, bestExt = v, internal
			}
		}
		if bestV >= 0 {
			part[bestV] = p
			sizes[donor]--
			sizes[p]++
		}
	}
}
