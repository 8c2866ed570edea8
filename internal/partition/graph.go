// Package partition implements a multilevel k-way graph partitioner in the
// style of METIS, which the paper uses to solve the network mapping problem.
//
// The partitioner supports:
//
//   - weighted vertices with multiple balance constraints per vertex
//     (multi-constraint partitioning, used by the PROFILE approach to balance
//     the load of several emulation stages at once),
//   - weighted edges with the usual minimize-edge-cut objective,
//   - the multi-objective edge-weight combination of Schloegel, Karypis and
//     Kumar that the paper applies in §2.3 to trade off the latency and
//     bandwidth objectives (see CombineObjectives).
//
// The pipeline is the classic three phases: coarsening by heavy-edge
// matching, initial partitioning by greedy graph growing, and uncoarsening
// with randomized greedy boundary refinement and balance repair (refine.go).
package partition

import "fmt"

// Edge is one half of an undirected edge: the neighbor index and the edge
// weight. Every undirected edge {u,v} appears both in Adj[u] and Adj[v] with
// equal weights.
type Edge struct {
	To  int
	Wgt int64
}

// Graph is an undirected graph with vector vertex weights and scalar edge
// weights. The zero value is an empty graph; use NewGraph or a Builder to
// construct one.
type Graph struct {
	// Ncon is the number of balance constraints, i.e. the length of every
	// vertex-weight vector. At least 1.
	Ncon int
	// VWgt[v] is the weight vector of vertex v; len(VWgt[v]) == Ncon.
	VWgt [][]int64
	// Adj[v] lists the edges incident to v.
	Adj [][]Edge
}

// NewGraph returns a graph with n vertices, ncon constraints (minimum 1), no
// edges, and all vertex weights 1.
//
// NewGraph, Clone and the weight-set constructors back their rows with one
// slab per array, each row capped at its length: appending to a row (AddEdge)
// moves that row off the slab and leaves its neighbors alone.
func NewGraph(n, ncon int) *Graph {
	if ncon < 1 {
		ncon = 1
	}
	g := &Graph{
		Ncon: ncon,
		VWgt: make([][]int64, n),
		Adj:  make([][]Edge, n),
	}
	slab := make([]int64, n*ncon)
	for i := range slab {
		slab[i] = 1
	}
	for v := range g.VWgt {
		g.VWgt[v], slab = slab[:ncon:ncon], slab[ncon:]
	}
	return g
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.VWgt) }

// halfEdges returns the number of adjacency slots: two per undirected edge.
func (g *Graph) halfEdges() int {
	total := 0
	for _, a := range g.Adj {
		total += len(a)
	}
	return total
}

// AddEdge adds the undirected edge {u,v} with weight w. Self loops are
// ignored (they cannot be cut so they never affect a partition). If the edge
// already exists its weight is increased by w, keeping the multigraph
// collapsed.
func (g *Graph) AddEdge(u, v int, w int64) {
	if u == v {
		return
	}
	g.addHalf(u, v, w)
	g.addHalf(v, u, w)
}

func (g *Graph) addHalf(u, v int, w int64) {
	for i := range g.Adj[u] {
		if g.Adj[u][i].To == v {
			g.Adj[u][i].Wgt += w
			return
		}
	}
	g.Adj[u] = append(g.Adj[u], Edge{To: v, Wgt: w})
}

// TotalVWgt returns the per-constraint sum of all vertex weights.
func (g *Graph) TotalVWgt() []int64 {
	tot := make([]int64, g.Ncon)
	for _, w := range g.VWgt {
		for c, x := range w {
			tot[c] += x
		}
	}
	return tot
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	cp := &Graph{
		Ncon: g.Ncon,
		VWgt: make([][]int64, len(g.VWgt)),
		Adj:  make([][]Edge, len(g.Adj)),
	}
	nw := 0
	for _, w := range g.VWgt {
		nw += len(w)
	}
	vwgt, edges := make([]int64, 0, nw), make([]Edge, 0, g.halfEdges())
	for v, w := range g.VWgt {
		vwgt = append(vwgt, w...)
		cp.VWgt[v] = vwgt[len(vwgt)-len(w) : len(vwgt) : len(vwgt)]
	}
	for v, a := range g.Adj {
		edges = append(edges, a...)
		cp.Adj[v] = edges[len(edges)-len(a) : len(edges) : len(edges)]
	}
	return cp
}

// EdgeWeightSet holds an alternative weight for every adjacency slot of a
// graph: Set[u][i] is the weight for edge g.Adj[u][i]. It is the vehicle for
// expressing multiple edge-weight objectives over a single graph structure.
type EdgeWeightSet [][]int64

// NewEdgeWeightSet allocates a weight set shaped like g's adjacency, all
// weights zero.
func NewEdgeWeightSet(g *Graph) EdgeWeightSet {
	s := make(EdgeWeightSet, len(g.Adj))
	slab := make([]int64, g.halfEdges())
	for v, a := range g.Adj {
		s[v], slab = slab[:len(a):len(a)], slab[len(a):]
	}
	return s
}

// SetSymmetric sets the weight of edge {u,v} in the set (both directions).
// It panics if the edge does not exist in g.
func (s EdgeWeightSet) SetSymmetric(g *Graph, u, v int, w int64) {
	if !s.setHalf(g, u, v, w) || !s.setHalf(g, v, u, w) {
		panic(fmt.Sprintf("partition: EdgeWeightSet.SetSymmetric: edge %d-%d not in graph", u, v))
	}
}

func (s EdgeWeightSet) setHalf(g *Graph, u, v int, w int64) bool {
	for i, e := range g.Adj[u] {
		if e.To == v {
			s[u][i] = w
			return true
		}
	}
	return false
}

// SetWeights overwrites g's edge weights with s, whose shape must match g's
// adjacency.
func (g *Graph) SetWeights(s EdgeWeightSet) {
	if len(s) != len(g.Adj) {
		panic("partition: SetWeights: weight set shape mismatch")
	}
	for v, a := range g.Adj {
		if len(s[v]) != len(a) {
			panic("partition: SetWeights: weight set shape mismatch")
		}
		for i := range a {
			a[i].Wgt = s[v][i]
		}
	}
}
