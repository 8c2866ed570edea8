package partition

import (
	"math/rand"
	"slices"
	"testing"
)

func TestNewGraphDefaults(t *testing.T) {
	g := NewGraph(4, 2)
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.Ncon != 2 {
		t.Fatalf("Ncon = %d, want 2", g.Ncon)
	}
	for v := 0; v < 4; v++ {
		for c := 0; c < 2; c++ {
			if g.VWgt[v][c] != 1 {
				t.Errorf("default VWgt[%d][%d] = %d, want 1", v, c, g.VWgt[v][c])
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewGraphNconFloor(t *testing.T) {
	g := NewGraph(1, 0)
	if g.Ncon != 1 {
		t.Errorf("Ncon = %d, want floor of 1", g.Ncon)
	}
}

func TestAddEdgeSymmetricAndMerging(t *testing.T) {
	g := NewGraph(3, 1)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 0, 3) // merges into the existing undirected edge
	w, ok := g.EdgeWeight(0, 1)
	if !ok || w != 8 {
		t.Errorf("EdgeWeight(0,1) = %d,%v, want 8,true", w, ok)
	}
	w, ok = g.EdgeWeight(1, 0)
	if !ok || w != 8 {
		t.Errorf("EdgeWeight(1,0) = %d,%v, want 8,true", w, ok)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAddEdgeSelfLoopIgnored(t *testing.T) {
	g := NewGraph(2, 1)
	g.AddEdge(1, 1, 9)
	if g.NumEdges() != 0 {
		t.Errorf("self loop was stored")
	}
}

func TestEdgeWeightMissing(t *testing.T) {
	g := NewGraph(2, 1)
	if _, ok := g.EdgeWeight(0, 1); ok {
		t.Error("EdgeWeight reported a nonexistent edge")
	}
}

func TestSetVWgtAndTotals(t *testing.T) {
	g := NewGraph(2, 2)
	g.SetVWgt(0, 3, 4)
	g.SetVWgt(1, 1, 6)
	tot := g.TotalVWgt()
	if tot[0] != 4 || tot[1] != 10 {
		t.Errorf("TotalVWgt = %v, want [4 10]", tot)
	}
}

func TestSetVWgtPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetVWgt with wrong arity did not panic")
		}
	}()
	g := NewGraph(1, 2)
	g.SetVWgt(0, 1)
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := NewGraph(2, 1)
	g.Adj[0] = append(g.Adj[0], Edge{To: 1, Wgt: 2}) // no reverse edge
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted an asymmetric graph")
	}
}

func TestValidateCatchesWeightMismatch(t *testing.T) {
	g := NewGraph(2, 1)
	g.Adj[0] = append(g.Adj[0], Edge{To: 1, Wgt: 2})
	g.Adj[1] = append(g.Adj[1], Edge{To: 0, Wgt: 3})
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted mismatched reverse weights")
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	g := NewGraph(2, 1)
	g.Adj[0] = append(g.Adj[0], Edge{To: 5, Wgt: 1})
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted out-of-range neighbor")
	}
}

func TestValidateCatchesNegativeVertexWeight(t *testing.T) {
	g := NewGraph(1, 1)
	g.VWgt[0][0] = -1
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted a negative vertex weight")
	}
}

func TestClone(t *testing.T) {
	g := ringGraph(5, 1)
	cp := g.Clone()
	cp.AddEdge(0, 2, 7)
	cp.VWgt[0][0] = 99
	if _, ok := g.EdgeWeight(0, 2); ok {
		t.Error("Clone shares adjacency with original")
	}
	if g.VWgt[0][0] == 99 {
		t.Error("Clone shares vertex weights with original")
	}
}

func TestEdgeWeightSetRoundTrip(t *testing.T) {
	g := ringGraph(4, 1)
	ws := NewEdgeWeightSet(g)
	ws.SetSymmetric(g, 0, 1, 10)
	ws.AddSymmetric(g, 0, 1, 5)
	g2 := withWeights(g, ws)
	w, _ := g2.EdgeWeight(0, 1)
	if w != 15 {
		t.Errorf("weight after SetWeights = %d, want 15", w)
	}
	w, _ = g2.EdgeWeight(1, 0)
	if w != 15 {
		t.Errorf("reverse weight after SetWeights = %d, want 15", w)
	}
	// Untouched edges become zero.
	w, _ = g2.EdgeWeight(1, 2)
	if w != 0 {
		t.Errorf("untouched edge weight = %d, want 0", w)
	}
	if err := g2.Validate(); err != nil {
		t.Errorf("Validate after SetWeights: %v", err)
	}
}

func TestEdgeWeightSetMissingEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetSymmetric on a missing edge did not panic")
		}
	}()
	g := ringGraph(4, 1)
	ws := NewEdgeWeightSet(g)
	ws.SetSymmetric(g, 0, 2, 1)
}

func TestWeightsExtraction(t *testing.T) {
	g := ringGraph(3, 1)
	ws := g.Weights()
	for v := range g.Adj {
		for i, e := range g.Adj[v] {
			if ws[v][i] != e.Wgt {
				t.Fatalf("Weights()[%d][%d] = %d, want %d", v, i, ws[v][i], e.Wgt)
			}
		}
	}
}

// ringGraph builds a cycle of n vertices with unit weights and ncon
// constraints — a convenient fixture with a known optimal cut (2 per split).
func ringGraph(n, ncon int) *Graph {
	g := NewGraph(n, ncon)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n, 1)
	}
	return g
}

// gridGraph builds an r×c grid with unit edge weights.
func gridGraph(r, c int) *Graph {
	g := NewGraph(r*c, 1)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j), 1)
			}
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1), 1)
			}
		}
	}
	return g
}

// randomGraph builds a connected random graph: a spanning ring plus extra
// random edges, with random weights.
func randomGraph(n, extra int, ncon int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n, ncon)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n, int64(1+rng.Intn(9)))
		for c := 0; c < ncon; c++ {
			g.VWgt[v][c] = int64(1 + rng.Intn(5))
		}
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, int64(1+rng.Intn(9)))
		}
	}
	return g
}

// coarsen is the reference coarsenFast is checked against: the same collapse,
// one scan of the fine graph per coarse vertex, fresh allocations, a map for
// the merge table.
func coarsen(g *Graph, match []int) level {
	n := g.NumVertices()
	fineToCoarse := make([]int, n)
	for v := range fineToCoarse {
		fineToCoarse[v] = -1
	}
	numCoarse := 0
	for v := 0; v < n; v++ {
		if fineToCoarse[v] != -1 {
			continue
		}
		fineToCoarse[v] = numCoarse
		if m := match[v]; m != v {
			fineToCoarse[m] = numCoarse
		}
		numCoarse++
	}

	cg := NewGraph(numCoarse, g.Ncon)
	for c := 0; c < numCoarse; c++ {
		for i := range cg.VWgt[c] {
			cg.VWgt[c][i] = 0
		}
	}
	for v := 0; v < n; v++ {
		cv := fineToCoarse[v]
		for c, w := range g.VWgt[v] {
			cg.VWgt[cv][c] += w
		}
	}

	// Merge adjacency. A scratch map per coarse vertex keeps this O(E).
	slot := make(map[int]int) // coarse neighbor -> index in cg.Adj[cv]
	for cv := 0; cv < numCoarse; cv++ {
		clear(slot)
		for v := 0; v < n; v++ {
			if fineToCoarse[v] != cv {
				continue
			}
			for _, e := range g.Adj[v] {
				cu := fineToCoarse[e.To]
				if cu == cv {
					continue // collapsed edge
				}
				if idx, ok := slot[cu]; ok {
					cg.Adj[cv][idx].Wgt += e.Wgt
				} else {
					slot[cu] = len(cg.Adj[cv])
					cg.Adj[cv] = append(cg.Adj[cv], Edge{To: cu, Wgt: e.Wgt})
				}
			}
		}
	}
	return level{graph: cg, fineToCoarse: fineToCoarse}
}

func TestCoarsenVariantsAgree(t *testing.T) {
	g := randomGraph(60, 90, 2, 7)
	rng := rand.New(rand.NewSource(1))
	var ws workspace
	match := ws.heavyEdgeMatch(g, rng, nil)
	a := coarsen(g, match)
	b := ws.coarsenFast(g, match)
	if a.graph.NumVertices() != b.graph.NumVertices() {
		t.Fatalf("variant vertex counts differ: %d vs %d", a.graph.NumVertices(), b.graph.NumVertices())
	}
	for v := range a.fineToCoarse {
		if a.fineToCoarse[v] != b.fineToCoarse[v] {
			t.Fatalf("fineToCoarse differs at %d", v)
		}
	}
	// Same total vertex weight and same edge weight between any coarse pair.
	at, bt := a.graph.TotalVWgt(), b.graph.TotalVWgt()
	for c := range at {
		if at[c] != bt[c] {
			t.Fatalf("coarse totals differ on constraint %d", c)
		}
	}
	// Same rows in the same order: the order decides later tie-breaks.
	for u := 0; u < a.graph.NumVertices(); u++ {
		if !slices.Equal(a.graph.Adj[u], b.graph.Adj[u]) {
			t.Fatalf("row %d: coarsen %v vs coarsenFast %v", u, a.graph.Adj[u], b.graph.Adj[u])
		}
	}
	if err := b.graph.Validate(); err != nil {
		t.Errorf("coarse graph invalid: %v", err)
	}
}

func TestHeavyEdgeMatchIsMatching(t *testing.T) {
	g := randomGraph(80, 120, 1, 3)
	rng := rand.New(rand.NewSource(2))
	match := new(workspace).heavyEdgeMatch(g, rng, nil)
	for v, m := range match {
		if m == -1 {
			t.Fatalf("vertex %d left unprocessed", v)
		}
		if match[m] != v {
			t.Fatalf("matching not symmetric: match[%d]=%d, match[%d]=%d", v, m, m, match[m])
		}
		if m != v {
			// Matched pairs must be adjacent.
			if _, ok := g.EdgeWeight(v, m); !ok {
				t.Fatalf("matched pair %d-%d not adjacent", v, m)
			}
		}
	}
}

func TestBuildHierarchyShrinks(t *testing.T) {
	g := randomGraph(500, 800, 1, 11)
	rng := rand.New(rand.NewSource(5))
	levels := new(workspace).buildHierarchy(g, 60, rng)
	if len(levels) == 0 {
		t.Fatal("no coarsening happened on a 500-vertex graph")
	}
	prev := g.NumVertices()
	for i, lv := range levels {
		n := lv.graph.NumVertices()
		if n >= prev {
			t.Fatalf("level %d did not shrink: %d -> %d", i, prev, n)
		}
		// Total vertex weight is invariant under coarsening.
		if lv.graph.TotalVWgt()[0] != g.TotalVWgt()[0] {
			t.Fatalf("level %d changed total vertex weight", i)
		}
		prev = n
	}
	if last := levels[len(levels)-1].graph.NumVertices(); last > 100 {
		t.Errorf("coarsest graph still has %d vertices", last)
	}
}
