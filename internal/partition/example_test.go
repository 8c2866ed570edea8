package partition_test

import (
	"fmt"

	"repro/internal/partition"
)

// Example partitions a small weighted graph into two balanced halves.
func Example() {
	// Two triangles joined by one light edge.
	g := partition.NewGraph(6, 1)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	g.AddEdge(0, 2, 5)
	g.AddEdge(3, 4, 5)
	g.AddEdge(4, 5, 5)
	g.AddEdge(3, 5, 5)
	g.AddEdge(2, 3, 1) // the bridge

	part, err := partition.Partition(g, 2, partition.Options{Seed: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("cut:", partition.EdgeCut(g, part))
	fmt.Println("separated:", part[0] != part[5])
	// Output:
	// cut: 1
	// separated: true
}

// ExampleCombineObjectives demonstrates the paper's §2.3 multi-objective
// normalization: two edge-weight objectives are scaled by their own optimal
// cuts before being mixed with the 6:4 priority.
func ExampleCombineObjectives() {
	g := partition.NewGraph(4, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1)

	latency := g.Weights()   // objective one: uniform
	bandwidth := g.Weights() // objective two: uniform too, for the demo

	// Each objective's own optimum: the cut of a partition under its weights
	// alone. A Partitioner keeps its scratch from one partition to the next,
	// and the graph is weighed in place for each.
	objs := []partition.EdgeWeightSet{latency, bandwidth}
	cuts := make([]int64, len(objs))
	var pt partition.Partitioner
	for i, ws := range objs {
		g.SetWeights(ws)
		part, err := pt.Partition(g, 2, partition.Options{Seed: 1})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		cuts[i] = partition.EdgeCut(g, part)
	}
	// The combined weights go into g too, ready for the final partition.
	if err := partition.CombineObjectives(g, objs, []float64{0.6, 0.4}, cuts); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("single-objective cuts:", cuts)
	// Output:
	// single-objective cuts: [2 2]
}
