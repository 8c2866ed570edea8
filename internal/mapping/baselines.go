package mapping

import (
	"math/rand"

	"repro/internal/netgraph"
)

// Baseline mapping strategies the paper discusses in §1/§5 as what existing
// emulators did before systematic load balance:
//
//   - KCluster: the randomized greedy k-cluster algorithm used by
//     ModelNet-class emulators ("for k nodes in the core set, randomly
//     selects k nodes in the virtual topology and greedily selects links
//     from the current connected component in a round-robin fashion").
//   - Hier: a simple hierarchical partitioner that orders the network by
//     breadth-first traversal and slices it into k equal-node chunks — the
//     "simple hierarchical graph partitioners" several projects rely on.
//
// Both ignore traffic entirely; they exist as comparators so the benches can
// show what TOP/PLACE/PROFILE buy over them.
const (
	KCluster Approach = "KCLUSTER"
	Hier     Approach = "HIER"
)

// BaselineApproaches lists the non-paper comparator strategies.
func BaselineApproaches() []Approach { return []Approach{KCluster, Hier} }

// KClusterMap implements the greedy k-cluster baseline. Seeds are chosen at
// random; clusters then claim adjacent unassigned nodes in round-robin
// order, each cluster greedily following a link out of its current connected
// component. Nodes unreachable from any seed (disconnected graphs) are
// assigned to the smallest cluster.
func KClusterMap(in Input) ([]int, error) {
	if err := in.defaults(); err != nil {
		return nil, err
	}
	nw := in.Network
	n := nw.NumNodes()
	rng := rand.New(rand.NewSource(in.PartOpts.Seed))

	part := make([]int, n)
	for v := range part {
		part[v] = -1
	}
	// Random distinct seeds.
	perm := rng.Perm(n)
	frontiers := make([][]int, in.K)
	counts := make([]int, in.K)
	for c := 0; c < in.K; c++ {
		seed := perm[c]
		part[seed] = c
		counts[c]++
		frontiers[c] = append(frontiers[c], seed)
	}

	assigned := in.K
	for assigned < n {
		progress := false
		for c := 0; c < in.K && assigned < n; c++ {
			// Greedily select one link leaving cluster c's component.
			v, ok := popFrontierNeighbor(nw, part, frontiers, c)
			if !ok {
				continue
			}
			part[v] = c
			counts[c]++
			frontiers[c] = append(frontiers[c], v)
			assigned++
			progress = true
		}
		if !progress {
			break // remaining nodes unreachable from every cluster
		}
	}
	// Disconnected leftovers: give them to the smallest cluster.
	for v := range part {
		if part[v] == -1 {
			smallest := 0
			for c := 1; c < in.K; c++ {
				if counts[c] < counts[smallest] {
					smallest = c
				}
			}
			part[v] = smallest
			counts[smallest]++
		}
	}
	return part, nil
}

// popFrontierNeighbor finds an unassigned neighbor of cluster c's frontier,
// pruning exhausted frontier nodes as it goes.
func popFrontierNeighbor(nw *netgraph.Network, part []int, frontiers [][]int, c int) (int, bool) {
	for len(frontiers[c]) > 0 {
		f := frontiers[c][0]
		for _, nb := range nw.Neighbors(f) {
			if part[nb] == -1 {
				return nb, true
			}
		}
		frontiers[c] = frontiers[c][1:]
	}
	return -1, false
}

// HierMap implements the trivial hierarchical baseline: breadth-first order
// from node 0, sliced into k chunks of equal node count.
func HierMap(in Input) ([]int, error) {
	if err := in.defaults(); err != nil {
		return nil, err
	}
	nw := in.Network
	n := nw.NumNodes()

	order := make([]int, 0, n)
	seen := make([]bool, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		queue := []int{start}
		seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, nb := range nw.Neighbors(v) {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}

	part := make([]int, n)
	for i, v := range order {
		p := i * in.K / n
		if p >= in.K {
			p = in.K - 1
		}
		part[v] = p
	}
	return part, nil
}
