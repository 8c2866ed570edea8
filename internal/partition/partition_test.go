package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPartitionErrors(t *testing.T) {
	g := ringGraph(4, 1)
	if _, err := Partition(g, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Partition(g, 5, Options{}); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Partition(NewGraph(0, 1), 1, Options{}); err == nil {
		t.Error("empty graph accepted")
	}
	// A NaN or +Inf tolerance would reach every balance ceiling; -Inf is
	// non-positive and selects the default.
	for _, eps := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := Partition(g, 3, Options{Imbalance: eps}); err == nil {
			t.Errorf("Imbalance %v accepted", eps)
		}
		if _, err := Improve(g, []int{0, 0, 1, 1}, 2, Options{Imbalance: eps}); err == nil {
			t.Errorf("Improve accepted Imbalance %v", eps)
		}
	}
	if _, err := Partition(g, 2, Options{Imbalance: math.Inf(-1)}); err != nil {
		t.Errorf("Imbalance -Inf: %v, want the default", err)
	}
}

func TestPartitionTrivial(t *testing.T) {
	g := ringGraph(6, 1)
	part, err := Partition(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 produced nonzero part")
		}
	}
	part, err = Partition(g, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, part, 6); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRingOptimal(t *testing.T) {
	// A 16-cycle split in 2 has optimal cut 2; the partitioner should find it.
	g := ringGraph(16, 1)
	part, err := Partition(g, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, part, 2); err != nil {
		t.Fatal(err)
	}
	if cut := EdgeCut(g, part); cut != 2 {
		t.Errorf("ring cut = %d, want 2", cut)
	}
	if b := Balance(g, part, 2)[0]; b > 1.05+1e-9 {
		t.Errorf("ring balance = %v, want <= 1.05", b)
	}
}

func TestPartitionGridQuality(t *testing.T) {
	// 8x8 grid into 4 parts: optimal cut is 16 (two straight bisections);
	// accept anything within 1.75x of optimal.
	g := gridGraph(8, 8)
	part, err := Partition(g, 4, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, part, 4); err != nil {
		t.Fatal(err)
	}
	cut := EdgeCut(g, part)
	if cut > 28 {
		t.Errorf("8x8 grid 4-way cut = %d, want <= 28", cut)
	}
	if b := Balance(g, part, 4)[0]; b > 1.05+1e-9 {
		t.Errorf("grid balance = %v, want <= 1.05", b)
	}
}

func TestPartitionTwoCliquesBridge(t *testing.T) {
	// Two 10-cliques joined by a single light edge: the bridge must be cut.
	g := NewGraph(20, 1)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			g.AddEdge(i, j, 10)
			g.AddEdge(10+i, 10+j, 10)
		}
	}
	g.AddEdge(0, 10, 1)
	part, err := Partition(g, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cut := EdgeCut(g, part); cut != 1 {
		t.Errorf("bridge cut = %d, want 1", cut)
	}
	if part[0] == part[10] {
		t.Error("cliques not separated")
	}
	for i := 1; i < 10; i++ {
		if part[i] != part[0] || part[10+i] != part[10] {
			t.Fatal("clique split internally")
		}
	}
}

func TestPartitionRespectsHeavyEdges(t *testing.T) {
	// A path a-b-c-d with weights 1, 100, 1: bisection must cut a light edge.
	g := NewGraph(4, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 100)
	g.AddEdge(2, 3, 1)
	part, err := Partition(g, 2, Options{Seed: 1, Imbalance: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if part[1] != part[2] {
		t.Error("heavy edge 1-2 was cut")
	}
}

func TestPartitionBalanceLargerGraphs(t *testing.T) {
	for _, tc := range []struct {
		n, extra, k int
		seed        int64
	}{
		{100, 150, 3, 1},
		{200, 300, 5, 2},
		{400, 700, 8, 3},
		{352, 500, 20, 4}, // the Table-2 scale: ~200 routers + hosts on 20 engines
	} {
		g := randomGraph(tc.n, tc.extra, 1, tc.seed)
		part, err := Partition(g, tc.k, Options{Seed: tc.seed})
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if err := Verify(g, part, tc.k); err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if b := Balance(g, part, tc.k)[0]; b > 1.15 {
			t.Errorf("n=%d k=%d balance = %v, want <= 1.15", tc.n, tc.k, b)
		}
	}
}

func TestPartitionDeterminism(t *testing.T) {
	g := randomGraph(150, 250, 2, 9)
	a, err := Partition(g, 6, Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, 6, Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestPartitionMultiConstraint(t *testing.T) {
	// Two constraints with anti-correlated weights: vertices heavy on
	// constraint 0 are light on constraint 1 and vice versa. Both must
	// balance simultaneously.
	g := randomGraph(120, 200, 2, 5)
	for v := 0; v < 120; v++ {
		if v%2 == 0 {
			g.SetVWgt(v, 10, 1)
		} else {
			g.SetVWgt(v, 1, 10)
		}
	}
	part, err := Partition(g, 4, Options{Seed: 6, Imbalance: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	bal := Balance(g, part, 4)
	for c, b := range bal {
		if b > 1.25 {
			t.Errorf("constraint %d balance = %v, want <= 1.25", c, b)
		}
	}
}

func TestPartitionZeroTotalConstraint(t *testing.T) {
	// A constraint that is zero everywhere must not wedge the partitioner.
	g := ringGraph(24, 2)
	for v := 0; v < 24; v++ {
		g.SetVWgt(v, 1, 0)
	}
	part, err := Partition(g, 3, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, part, 3); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDisconnectedGraph(t *testing.T) {
	// Two disjoint rings; partitioner must still produce a valid balanced
	// 2-way split (ideally cut 0).
	g := NewGraph(20, 1)
	for v := 0; v < 10; v++ {
		g.AddEdge(v, (v+1)%10, 1)
		g.AddEdge(10+v, 10+(v+1)%10, 1)
	}
	part, err := Partition(g, 2, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, part, 2); err != nil {
		t.Fatal(err)
	}
	if cut := EdgeCut(g, part); cut > 2 {
		t.Errorf("disconnected cut = %d, want <= 2", cut)
	}
}

func TestPartitionPropertyValidAssignment(t *testing.T) {
	// Property: for random graphs and k, Partition always returns a complete
	// assignment with every part nonempty and balance within a loose bound.
	f := func(seed int64, kRaw uint8, nRaw uint8) bool {
		n := 20 + int(nRaw)%180
		k := 2 + int(kRaw)%7
		g := randomGraph(n, n, 1, seed)
		part, err := Partition(g, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		if Verify(g, part, k) != nil {
			return false
		}
		return Balance(g, part, k)[0] <= 1.6
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(123))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEdgeCutMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(30, 40, 1, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5f))
		part := make([]int, 30)
		for v := range part {
			part[v] = rng.Intn(3)
		}
		var want int64
		for u := range g.Adj {
			for _, e := range g.Adj[u] {
				if part[u] != part[e.To] {
					want += e.Wgt
				}
			}
		}
		want /= 2
		return EdgeCut(g, part) == want
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(321))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVerifyRejects(t *testing.T) {
	g := ringGraph(4, 1)
	if err := Verify(g, []int{0, 1}, 2); err == nil {
		t.Error("short assignment accepted")
	}
	if err := Verify(g, []int{0, 1, 2, 0}, 2); err == nil {
		t.Error("out-of-range part accepted")
	}
	if err := Verify(g, []int{0, 0, 0, 0}, 2); err == nil {
		t.Error("empty part accepted")
	}
	if err := Verify(g, []int{0, 0, 1, 1}, 2); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
}

func TestBalanceReporting(t *testing.T) {
	g := NewGraph(4, 1)
	g.SetVWgt(0, 3)
	g.SetVWgt(1, 1)
	g.SetVWgt(2, 1)
	g.SetVWgt(3, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	part := []int{0, 0, 1, 1}
	// total 6, avg 3; part0 weighs 4 -> balance 4/3.
	b := Balance(g, part, 2)[0]
	if b < 1.33 || b > 1.34 {
		t.Errorf("balance = %v, want ~1.333", b)
	}
}

func TestCutWeightOf(t *testing.T) {
	g := ringGraph(4, 1)
	ws := NewEdgeWeightSet(g)
	ws.SetSymmetric(g, 0, 1, 7)
	ws.SetSymmetric(g, 2, 3, 2)
	part := []int{0, 1, 1, 0} // cuts edges 0-1, 1-2(w0), 2-3, 3-0(w0)
	if got := CutWeightOf(g, ws, part); got != 9 {
		t.Errorf("CutWeightOf = %d, want 9", got)
	}
}

func TestPartitionStressManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := randomGraph(250, 400, 1, 99)
	for seed := int64(0); seed < 10; seed++ {
		part, err := Partition(g, 7, Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Verify(g, part, 7); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestPartitionFractions(t *testing.T) {
	// Target 50/25/25: part 0 should end up with about half the weight.
	g := randomGraph(120, 200, 1, 21)
	frac := []float64{0.5, 0.25, 0.25}
	part, err := Partition(g, 3, Options{Seed: 2, PartFractions: frac})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, part, 3); err != nil {
		t.Fatal(err)
	}
	w := partWeights(g, part, 3)
	total := g.TotalVWgt()[0]
	for p, f := range frac {
		share := float64(w[p][0]) / float64(total)
		if share < f*0.80 || share > f*1.20 {
			t.Errorf("part %d share = %.2f, want ~%.2f", p, share, f)
		}
	}
}

func TestPartitionFractionsInvalidIgnored(t *testing.T) {
	// Wrong length or non-normalized fractions fall back to uniform.
	g := randomGraph(60, 90, 1, 22)
	for _, frac := range [][]float64{
		{0.5, 0.5},      // wrong length for k=3
		{0.9, 0.9, 0.9}, // doesn't sum to 1
		{1.0, 0.0, 0.0}, // zero entries
	} {
		part, err := Partition(g, 3, Options{Seed: 1, PartFractions: frac})
		if err != nil {
			t.Fatal(err)
		}
		if b := Balance(g, part, 3)[0]; b > 1.25 {
			t.Errorf("fallback-to-uniform balance = %v for frac %v", b, frac)
		}
	}
}

func TestImproveWithFractions(t *testing.T) {
	g := randomGraph(100, 150, 1, 23)
	frac := []float64{0.6, 0.2, 0.2}
	part, err := Partition(g, 3, Options{Seed: 3, PartFractions: frac})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Improve(g, part, 3, Options{Seed: 4, PartFractions: frac}); err != nil {
		t.Fatal(err)
	}
	w := partWeights(g, part, 3)
	total := g.TotalVWgt()[0]
	if share := float64(w[0][0]) / float64(total); share < 0.45 {
		t.Errorf("part 0 share after Improve = %.2f, want ~0.6", share)
	}
}

// TestWorkspaceReuseIsInvisible drives one Partitioner through graphs of
// different size, constraint count, part count and target fractions in
// sequence — first a Brite fixture at k = 16, larger in both n and k than
// anything after it, then small random instances forced to coarsen, with the
// two Brite fixtures in between so that the scratch shrinks and grows — and
// requires what fresh one-shot partitions return.
func TestWorkspaceReuseIsInvisible(t *testing.T) {
	fixtures := []*Graph{readFixture(t, "brite_top"), readFixture(t, "brite_profile_traffic")}
	rng := rand.New(rand.NewSource(20031115))
	var pt Partitioner
	if _, err := pt.Partition(fixtures[1], 16, Options{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		k := 2 + rng.Intn(7)
		g, _ := randomInstance(rng, k, i%3 == 2)
		opts := Options{Seed: rng.Int63(), CoarsenTo: 2*k + rng.Intn(20), PartFractions: randomFractions(rng, k)}
		if i%60 == 59 {
			g, opts.CoarsenTo = fixtures[i/60%2], 0
		}
		got, err := pt.Partition(g, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Partition(g, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d (n=%d ncon=%d k=%d): a used partitioner differs from a new one", i, g.NumVertices(), g.Ncon, k)
		}
		got[0] = -1 // the caller owns what it was returned
	}
}
