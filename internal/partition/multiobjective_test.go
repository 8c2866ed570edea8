package partition

import (
	"math"
	"testing"
)

// twoObjectiveFixture builds a 4-ring where the latency objective wants to
// cut edges {0-1, 2-3} and the bandwidth objective wants {1-2, 3-0}.
func twoObjectiveFixture() (*Graph, []EdgeWeightSet) {
	g := ringGraph(4, 1)
	lat := NewEdgeWeightSet(g)
	bw := NewEdgeWeightSet(g)
	// Minimizing cut: cheap edges get cut. Latency weights make 0-1 and 2-3
	// cheap; bandwidth weights make 1-2 and 3-0 cheap.
	lat.SetSymmetric(g, 0, 1, 1)
	lat.SetSymmetric(g, 1, 2, 10)
	lat.SetSymmetric(g, 2, 3, 1)
	lat.SetSymmetric(g, 3, 0, 10)
	bw.SetSymmetric(g, 0, 1, 10)
	bw.SetSymmetric(g, 1, 2, 1)
	bw.SetSymmetric(g, 2, 3, 10)
	bw.SetSymmetric(g, 3, 0, 1)
	return g, []EdgeWeightSet{lat, bw}
}

// objectiveCuts partitions g under each objective alone and returns the cuts:
// CombineObjectives' normalizers.
func objectiveCuts(t *testing.T, g *Graph, objs []EdgeWeightSet, k int, opts Options) []int64 {
	t.Helper()
	cuts := make([]int64, len(objs))
	for i, ws := range objs {
		gi := g.WithWeights(ws)
		part, err := Partition(gi, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		cuts[i] = EdgeCut(gi, part)
	}
	return cuts
}

// multiObjective runs the full §2.3 pipeline: single-objective partitions to
// obtain normalizers, weight combination, and a final partition under the
// combined weights.
func multiObjective(t *testing.T, g *Graph, objs []EdgeWeightSet, coef []float64, k int, opts Options) []int {
	t.Helper()
	combined, err := CombineObjectives(g, objs, coef, objectiveCuts(t, g, objs, k, opts))
	if err != nil {
		t.Fatal(err)
	}
	part, err := Partition(g.WithWeights(combined), k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func TestCombineObjectivesErrors(t *testing.T) {
	g, objs := twoObjectiveFixture()
	cuts := []int64{2, 2}
	if _, err := CombineObjectives(g, nil, nil, nil); err == nil {
		t.Error("no objectives accepted")
	}
	if _, err := CombineObjectives(g, objs, []float64{1}, cuts); err == nil {
		t.Error("coefficient arity mismatch accepted")
	}
	if _, err := CombineObjectives(g, objs, []float64{1, 1}, cuts[:1]); err == nil {
		t.Error("cut arity mismatch accepted")
	}
	if _, err := CombineObjectives(g, objs, []float64{-1, 2}, cuts); err == nil {
		t.Error("negative coefficient accepted")
	}
	if _, err := CombineObjectives(g, objs, []float64{math.NaN(), 1}, cuts); err == nil {
		t.Error("NaN coefficient accepted")
	}
	if _, err := CombineObjectives(g, objs, []float64{0, 0}, cuts); err == nil {
		t.Error("all-zero coefficients accepted")
	}
}

func TestCombineObjectivesNormalizes(t *testing.T) {
	g, objs := twoObjectiveFixture()
	cuts := objectiveCuts(t, g, objs, 2, Options{Seed: 1})
	combined, err := CombineObjectives(g, objs, []float64{0.5, 0.5}, cuts)
	if err != nil {
		t.Fatal(err)
	}
	// Each single-objective optimum cuts the two cheap edges: cut = 2.
	for i, c := range cuts {
		if c != 2 {
			t.Errorf("objective %d optimal cut = %d, want 2", i, c)
		}
	}
	// Combined weights on a symmetric instance: every edge has weight
	// 0.5*w_lat/2 + 0.5*w_bw/2 and by construction w_lat+w_bw = 11 for all
	// edges, so all combined weights must be equal.
	var first int64 = -1
	for v := range g.Adj {
		for i := range g.Adj[v] {
			if first == -1 {
				first = combined[v][i]
			} else if combined[v][i] != first {
				t.Fatalf("combined weights differ: %d vs %d", first, combined[v][i])
			}
		}
	}
}

func TestCombineObjectivesExtremePriorities(t *testing.T) {
	g, objs := twoObjectiveFixture()
	// Pure latency priority must reproduce the latency optimum: parts {0,3},{1,2}
	// or {1,0},{2,3} — i.e. edges 0-1 and 2-3 cut.
	part := multiObjective(t, g, objs, []float64{1, 0}, 2, Options{Seed: 5})
	lat := g.WithWeights(objs[0])
	if cut := EdgeCut(lat, part); cut != 2 {
		t.Errorf("latency-priority cut under latency weights = %d, want 2", cut)
	}
	// Pure bandwidth priority must reproduce the bandwidth optimum.
	part = multiObjective(t, g, objs, []float64{0, 1}, 2, Options{Seed: 5})
	bw := g.WithWeights(objs[1])
	if cut := EdgeCut(bw, part); cut != 2 {
		t.Errorf("bandwidth-priority cut under bandwidth weights = %d, want 2", cut)
	}
}

func TestMultiObjectiveTradeoffIsBounded(t *testing.T) {
	// On a larger random graph, a 6:4 combination should stay within a small
	// factor of both single-objective optima (the SKK "good multi-objective
	// partition" property).
	g := randomGraph(120, 200, 1, 8)
	lat := NewEdgeWeightSet(g)
	bw := NewEdgeWeightSet(g)
	for v := range g.Adj {
		for _, e := range g.Adj[v] {
			if v < e.To {
				lw := int64(1 + (v+e.To)%17)
				bwgt := int64(1 + (v*e.To)%23)
				lat.SetSymmetric(g, v, e.To, lw)
				bw.SetSymmetric(g, v, e.To, bwgt)
			}
		}
	}
	opts := Options{Seed: 17}
	k := 4

	latPart, err := Partition(g.WithWeights(lat), k, opts)
	if err != nil {
		t.Fatal(err)
	}
	cLat := CutWeightOf(g, lat, latPart)
	bwPart, err := Partition(g.WithWeights(bw), k, opts)
	if err != nil {
		t.Fatal(err)
	}
	cBw := CutWeightOf(g, bw, bwPart)

	part := multiObjective(t, g, []EdgeWeightSet{lat, bw}, []float64{0.6, 0.4}, k, opts)
	if err := Verify(g, part, k); err != nil {
		t.Fatal(err)
	}
	gotLat := CutWeightOf(g, lat, part)
	gotBw := CutWeightOf(g, bw, part)
	if float64(gotLat) > 3.0*float64(cLat) {
		t.Errorf("combined partition latency cut %d vs optimum %d (> 3x)", gotLat, cLat)
	}
	if float64(gotBw) > 3.0*float64(cBw) {
		t.Errorf("combined partition bandwidth cut %d vs optimum %d (> 3x)", gotBw, cBw)
	}
}

func TestCombineObjectivesZeroCutObjective(t *testing.T) {
	// An objective whose weights are all zero yields a zero single-objective
	// cut; the combiner must not divide by zero.
	g := ringGraph(8, 1)
	zero := NewEdgeWeightSet(g)
	one := g.Weights()
	objs := []EdgeWeightSet{zero, one}
	cuts := objectiveCuts(t, g, objs, 2, Options{Seed: 1})
	combined, err := CombineObjectives(g, objs, []float64{0.5, 0.5}, cuts)
	if err != nil {
		t.Fatal(err)
	}
	if cuts[0] != 0 {
		t.Errorf("zero objective cut = %d, want 0", cuts[0])
	}
	for v := range combined {
		for _, w := range combined[v] {
			if w < 0 {
				t.Fatal("negative combined weight")
			}
		}
	}
}
