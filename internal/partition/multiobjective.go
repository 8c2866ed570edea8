package partition

import "fmt"

// combineScale converts the normalized (fractional) combined weights back to
// the integer weights the partitioner uses. Large enough that ratios survive
// rounding, small enough that summed cuts stay far from overflow.
const combineScale = 1 << 20

// CombineObjectives implements the multi-objective weight combination the
// paper adopts from Schloegel, Karypis and Kumar (§2.3). Given, for each
// objective i, the cut Cᵢ a partition under that objective's edge weights
// alone achieves (cuts[i] = EdgeCut of Partition on g under objs[i]), it
// writes into every edge of g the combined weight
//
//	w(e) = Σᵢ coef[i] · wᵢ(e)/Cᵢ
//
// so each objective contributes in proportion to how close the combined
// solution stays to that objective's own optimum. The weights are scaled to
// integers; the caller partitions g for the final answer. Only g's edge
// weights change, so a caller that partitions under several weightings keeps
// one copy of the graph per goroutine and weighs it in place. The single-
// objective partitions are the caller's so that it can run them wherever it
// runs its other partitions (the mapping layer fans them out with its
// trials). On error g is unchanged.
//
// objs must be shaped like g's adjacency, and coef must have one non-negative
// entry per objective (they are normalized internally, so only ratios matter
// — the paper's default latency:traffic priority is 6:4).
func CombineObjectives(g *Graph, objs []EdgeWeightSet, coef []float64, cuts []int64) error {
	if len(objs) == 0 {
		return fmt.Errorf("partition: CombineObjectives: no objectives")
	}
	if len(coef) != len(objs) || len(cuts) != len(objs) {
		return fmt.Errorf("partition: CombineObjectives: %d coefficients and %d cuts for %d objectives", len(coef), len(cuts), len(objs))
	}
	var coefSum float64
	for i, c := range coef {
		if !(c >= 0) { // NaN too
			return fmt.Errorf("partition: CombineObjectives: coefficient %d is negative or NaN", i)
		}
		coefSum += c
	}
	if coefSum == 0 {
		return fmt.Errorf("partition: CombineObjectives: all coefficients are zero")
	}

	for v, a := range g.Adj {
		for e := range a {
			var w float64
			for i, ws := range objs {
				denom := float64(cuts[i])
				if denom <= 0 {
					// A zero single-objective cut means the objective is
					// trivially satisfiable; normalize by 1 so its weights
					// still participate.
					denom = 1
				}
				w += coef[i] / coefSum * float64(ws[v][e]) / denom
			}
			a[e].Wgt = int64(w*combineScale + 0.5)
		}
	}
	return nil
}
