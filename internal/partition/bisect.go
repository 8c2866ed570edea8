package partition

import (
	"fmt"
	"math/rand"
)

// Strategy selects the partitioning algorithm.
type Strategy int

const (
	// KWay is the default: direct multilevel k-way partitioning.
	KWay Strategy = iota
	// RecursiveBisection splits the graph in two (with weight targets
	// proportional to the part counts on each side), then recurses — the
	// classic METIS pmetis approach. Often slightly better cuts for small
	// k, slower for large k.
	RecursiveBisection
)

// PartitionRB partitions g into k parts by recursive bisection.
func PartitionRB(g *Graph, k int, opts Options) ([]int, error) {
	n := g.NumVertices()
	switch {
	case k < 1:
		return nil, fmt.Errorf("partition: k = %d, must be >= 1", k)
	case k > n:
		return nil, fmt.Errorf("partition: k = %d exceeds vertex count %d", k, n)
	case n == 0:
		return nil, fmt.Errorf("partition: empty graph")
	}
	opts, err := opts.withDefaults(k)
	if err != nil {
		return nil, err
	}

	part := make([]int, n)
	vertices := make([]int, n)
	for v := range vertices {
		vertices[v] = v
	}
	if err := bisectInto(g, vertices, part, 0, k, opts); err != nil {
		return nil, err
	}
	// A final k-way polish over the whole assignment knits the bisection
	// boundaries together.
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5bd1e995))
	ws := newWorkspace(g, k, nil)
	ws.refine(g, part, opts.Imbalance, opts.RefinePasses, rng)
	ws.rebalance(g, part, opts.Imbalance)
	ensureNonEmpty(g, part, k)
	return part, nil
}

// bisectInto assigns parts [base, base+k) to the given vertex subset.
func bisectInto(g *Graph, vertices []int, part []int, base, k int, opts Options) error {
	if k == 1 {
		for _, v := range vertices {
			part[v] = base
		}
		return nil
	}
	kLeft := k / 2
	kRight := k - kLeft

	// Build the induced subgraph.
	sub, toSub := induce(g, vertices)

	// Bisect with weight targets kLeft:kRight. Encode by scaling: partition
	// into 2 with the constraint-vector trick — replicate vertices? Simpler:
	// use Partition with k=2 on a graph whose total is split evenly only
	// when kLeft == kRight; for odd splits, pad the lighter side's target by
	// adjusting the tolerance asymmetrically. We approximate by running a
	// 2-way partition and then shifting weight until the side ratios match
	// kLeft:kRight within tolerance.
	bisectOpts := opts
	bisectOpts.Strategy = KWay // the 2-way base case is direct multilevel
	sp, err := Partition(sub, 2, bisectOpts)
	if err != nil {
		return err
	}
	if kLeft != kRight {
		skewBisection(sub, sp, kLeft, kRight, opts)
	}

	var left, right []int
	for i, v := range vertices {
		if sp[toSub[i]] == 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	if len(left) < kLeft || len(right) < kRight {
		// Degenerate bisection: fall back to an arbitrary feasible split.
		all := append(append([]int(nil), left...), right...)
		left = all[:len(all)*kLeft/k]
		right = all[len(all)*kLeft/k:]
	}
	subOpts := opts
	subOpts.Seed = opts.Seed*2 + 1
	if err := bisectInto(g, left, part, base, kLeft, subOpts); err != nil {
		return err
	}
	subOpts.Seed = opts.Seed*2 + 2
	return bisectInto(g, right, part, base+kLeft, kRight, subOpts)
}

// induce builds the subgraph of g on the given vertices. Returns the
// subgraph and the identity position mapping (toSub[i] = i, kept for
// clarity at call sites).
func induce(g *Graph, vertices []int) (*Graph, []int) {
	pos := make(map[int]int, len(vertices))
	for i, v := range vertices {
		pos[v] = i
	}
	sub := NewGraph(len(vertices), g.Ncon)
	toSub := make([]int, len(vertices))
	for i, v := range vertices {
		toSub[i] = i
		copy(sub.VWgt[i], g.VWgt[v])
		for _, e := range g.Adj[v] {
			if j, ok := pos[e.To]; ok && v < e.To {
				sub.AddEdge(i, j, e.Wgt)
			}
		}
	}
	return sub, toSub
}

// skewBisection shifts boundary vertices from side 0 to side 1 (or back)
// until the weight ratio approximates kLeft:kRight.
func skewBisection(sub *Graph, sp []int, kLeft, kRight int, opts Options) {
	total := sub.TotalVWgt()[0]
	targetLeft := float64(total) * float64(kLeft) / float64(kLeft+kRight)
	for iter := 0; iter < sub.NumVertices(); iter++ {
		var leftW int64
		counts := [2]int{}
		for v, p := range sp {
			counts[p]++
			if p == 0 {
				leftW += sub.VWgt[v][0]
			}
		}
		diff := float64(leftW) - targetLeft
		tol := (opts.Imbalance + 0.02) * targetLeft
		if diff > -tol && diff < tol {
			return
		}
		from, to := 0, 1
		if diff < 0 {
			from, to = 1, 0
		}
		if counts[from] <= 1 {
			return
		}
		// Move the boundary vertex with the least cut damage.
		bestV := -1
		var bestCost int64
		for v, p := range sp {
			if p != from || sub.VWgt[v][0] == 0 {
				continue
			}
			var internal, external int64
			for _, e := range sub.Adj[v] {
				if sp[e.To] == from {
					internal += e.Wgt
				} else {
					external += e.Wgt
				}
			}
			cost := internal - external
			if bestV == -1 || cost < bestCost {
				bestV, bestCost = v, cost
			}
		}
		if bestV == -1 {
			return
		}
		sp[bestV] = to
	}
}
