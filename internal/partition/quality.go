package partition

import "fmt"

// EdgeCut returns the total weight of edges whose endpoints lie in different
// parts.
func EdgeCut(g *Graph, part []int) int64 {
	var cut int64
	for u, adj := range g.Adj {
		for _, e := range adj {
			if u < e.To && part[u] != part[e.To] {
				cut += e.Wgt
			}
		}
	}
	return cut
}

// CutWeightOf returns the cut of the partition measured under an alternative
// edge-weight set (e.g. one objective of a multi-objective problem).
func CutWeightOf(g *Graph, ws EdgeWeightSet, part []int) int64 {
	var cut int64
	for u, adj := range g.Adj {
		for i, e := range adj {
			if u < e.To && part[u] != part[e.To] {
				cut += ws[u][i]
			}
		}
	}
	return cut
}

// Balance returns, for each constraint, max over parts of
// partWeight/(total/k) — the max-norm balance ratio; 1.0 is perfect.
// Constraints with zero total weight report 1.0.
func Balance(g *Graph, part []int, k int) []float64 {
	w := partWeights(g, part, k)
	total := g.TotalVWgt()
	out := make([]float64, g.Ncon)
	for c, t := range total {
		if t == 0 {
			out[c] = 1
			continue
		}
		avg := float64(t) / float64(k)
		worst := 0.0
		for p := range w {
			r := float64(w[p][c]) / avg
			if r > worst {
				worst = r
			}
		}
		out[c] = worst
	}
	return out
}

// Verify checks that part is a structurally valid k-way assignment of g:
// correct length, all values in [0,k), and no empty part. It returns a
// non-nil error describing the first violation.
func Verify(g *Graph, part []int, k int) error {
	if len(part) != g.NumVertices() {
		return fmt.Errorf("partition: verify: assignment has %d entries for %d vertices", len(part), g.NumVertices())
	}
	seen := make([]bool, k)
	for v, p := range part {
		if p < 0 || p >= k {
			return fmt.Errorf("partition: verify: vertex %d assigned to part %d, want [0,%d)", v, p, k)
		}
		seen[p] = true
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("partition: verify: part %d is empty", p)
		}
	}
	return nil
}
