package partition

import "fmt"

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.halfEdges() / 2 }

// SetVWgt sets the weight vector of vertex v. The vector length must equal
// Ncon.
func (g *Graph) SetVWgt(v int, w ...int64) {
	if len(w) != g.Ncon {
		panic(fmt.Sprintf("partition: SetVWgt got %d weights, graph has %d constraints", len(w), g.Ncon))
	}
	copy(g.VWgt[v], w)
}

// AddSymmetric adds w to the weight of edge {u,v} in the set (both
// directions). It panics if the edge does not exist in g.
func (s EdgeWeightSet) AddSymmetric(g *Graph, u, v int, w int64) {
	if !s.addHalf(g, u, v, w) || !s.addHalf(g, v, u, w) {
		panic(fmt.Sprintf("partition: EdgeWeightSet.AddSymmetric: edge %d-%d not in graph", u, v))
	}
}

func (s EdgeWeightSet) addHalf(g *Graph, u, v int, w int64) bool {
	for i, e := range g.Adj[u] {
		if e.To == v {
			s[u][i] += w
			return true
		}
	}
	return false
}

// Weights extracts the current edge weights of g as an EdgeWeightSet.
func (g *Graph) Weights() EdgeWeightSet {
	s := NewEdgeWeightSet(g)
	for v, a := range g.Adj {
		for i, e := range a {
			s[v][i] = e.Wgt
		}
	}
	return s
}
