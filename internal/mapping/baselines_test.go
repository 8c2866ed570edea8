package mapping

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/topogen"
)

func TestKClusterMapValid(t *testing.T) {
	nw := topogen.Campus()
	part, err := KClusterMap(Input{Network: nw, K: 3, PartOpts: partition.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := validPartition(nw.NumNodes(), part, 3); err != nil {
		t.Fatal(err)
	}
}

func TestKClusterMapClustersConnected(t *testing.T) {
	// Each cluster grown by the greedy algorithm must be connected on a
	// connected input graph.
	nw := topogen.TeraGrid()
	const k = 5
	part, err := KClusterMap(Input{Network: nw, K: k, PartOpts: partition.Options{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < k; c++ {
		if !clusterConnected(nw, part, c) {
			t.Errorf("cluster %d is not connected", c)
		}
	}
}

func clusterConnected(nw interface {
	NumNodes() int
	Neighbors(int) []int
}, part []int, c int) bool {
	var start = -1
	count := 0
	for v, p := range part {
		if p == c {
			count++
			if start == -1 {
				start = v
			}
		}
	}
	if count == 0 {
		return false
	}
	seen := map[int]bool{start: true}
	stack := []int{start}
	reached := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range nw.Neighbors(v) {
			if part[nb] == c && !seen[nb] {
				seen[nb] = true
				reached++
				stack = append(stack, nb)
			}
		}
	}
	return reached == count
}

func TestKClusterMapErrors(t *testing.T) {
	nw := topogen.Campus()
	if _, err := KClusterMap(Input{Network: nw, K: nw.NumNodes() + 1}); err == nil {
		t.Error("k > n accepted")
	}
}

func TestHierMapValid(t *testing.T) {
	nw := topogen.Campus()
	part, err := HierMap(Input{Network: nw, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := validPartition(nw.NumNodes(), part, 3); err != nil {
		t.Fatal(err)
	}
	// Chunks are near-equal in node count.
	counts := make([]int, 3)
	for _, p := range part {
		counts[p]++
	}
	for _, c := range counts {
		if c < nw.NumNodes()/3-1 || c > nw.NumNodes()/3+2 {
			t.Errorf("HIER chunk sizes uneven: %v", counts)
		}
	}
}

func TestHierMapErrors(t *testing.T) {
	nw := topogen.Campus()
	if _, err := HierMap(Input{Network: nw, K: nw.NumNodes() + 1}); err == nil {
		t.Error("k > n accepted")
	}
}

func TestMapDispatchesBaselines(t *testing.T) {
	nw := topogen.Campus()
	in := Input{Network: nw, K: 3, PartOpts: partition.Options{Seed: 3}}
	for _, a := range append(BaselineApproaches(), Top) {
		part, err := Map(a, in)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if err := validPartition(nw.NumNodes(), part, 3); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
	if _, err := Map("NOPE", in); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestBaselinesIgnoreTrafficButPaperApproachesBeatThem(t *testing.T) {
	// The DESIGN.md promise: the paper's informed approaches should not be
	// worse-balanced than the traffic-blind baselines under a skewed
	// traffic pattern. Use realized vertex-count balance as a weak proxy
	// here (full traffic comparison lives in the benches).
	nw := topogen.TeraGrid()
	in := Input{Network: nw, K: 5, PartOpts: partition.Options{Seed: 1}}
	top, err := TopMap(in)
	if err != nil {
		t.Fatal(err)
	}
	kc, err := KClusterMap(in)
	if err != nil {
		t.Fatal(err)
	}
	// KCluster can produce arbitrarily skewed node counts; TOP is balance
	// constrained. Compare max part size.
	maxOf := func(part []int) int {
		counts := make(map[int]int)
		for _, p := range part {
			counts[p]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return max
	}
	if maxOf(top) > maxOf(kc)*2 {
		t.Errorf("TOP max part %d far above KCLUSTER %d", maxOf(top), maxOf(kc))
	}
}
