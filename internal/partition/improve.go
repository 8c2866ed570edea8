package partition

import (
	"fmt"
	"math/rand"
)

// Improve refines an existing assignment in place: boundary refinement plus
// balance repair under the given options, without rebuilding the partition
// from scratch. It is the primitive behind RemapOnto's membership-change
// remap: improving the previous assignment moves far fewer vertices than
// repartitioning, which matters when every moved vertex costs a migration.
//
// Returns the number of vertices whose part changed.
func Improve(g *Graph, part []int, k int, opts Options) (int, error) {
	if err := Verify(g, part, k); err != nil {
		return 0, fmt.Errorf("partition: Improve: %w", err)
	}
	opts, err := opts.withDefaults(k)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	before := append([]int(nil), part...)
	ws := newWorkspace(g, k, opts.PartFractions)

	// Same polish schedule as Partition's final phase: refine, then anneal
	// the balance ceiling down to the 3% target.
	ws.refine(g, part, opts.Imbalance, opts.RefinePasses, rng)
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

	moved := 0
	for v := range part {
		if part[v] != before[v] {
			moved++
		}
	}
	return moved, nil
}
