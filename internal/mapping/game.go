package mapping

import (
	"fmt"
	"math"

	"repro/internal/partition"
)

// Dynamic remapping policies beyond from-scratch PROFILE: the game-theoretic
// iterative repartitioner (the ROADMAP's Kurve et al. item) and the classic
// traffic-blind load-diffusion baseline it is measured against.

// GameRemap is the game-theoretic remap policy: instead of re-running the
// multilevel partitioner over the measured profile, it lets every virtual
// node play selfish best responses — trading its computational load, its
// share of the cross-engine traffic, and the modeled migration cost — until
// a Nash-style fixed point (see partition.GameImprove). The measured traffic
// edge weights are the payoff's traffic objective. Returns the refined
// assignment (a fresh slice), the number of nodes that changed engines, and
// the convergence stats.
func GameRemap(in Input, previous []int, gopts partition.GameOptions) ([]int, int, *partition.GameStats, error) {
	// The game balances the interval's total measured load; the whole-run
	// timeline clustering of §3.3 does not apply to one interval's profile.
	in.Cluster = false
	if err := in.defaults(); err != nil {
		return nil, 0, nil, err
	}
	g, objs, err := profileGraph(&in)
	if err != nil {
		return nil, 0, nil, err
	}
	if gopts.Seed == 0 {
		// Decorrelate the tie-break stream from the partitioner's restart
		// streams while keeping it a pure function of the scenario seed.
		gopts.Seed = in.PartOpts.Seed + 0x6761
	}
	next := append([]int(nil), previous...)
	g.SetWeights(objs[1])
	moved, stats, err := partition.GameImprove(g, next, in.K, gopts)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("mapping: game remap: %w", err)
	}
	return next, moved, stats, nil
}

// DiffusionRemap is the traffic-blind baseline the dynamic-policy comparison
// measures GameRemap against: classic load diffusion, repeatedly shifting a
// node from the most- to the least-loaded engine until the heaviest engine
// is within the balance tolerance. It sees only the measured per-node loads,
// never the traffic matrix, so whatever cross-engine traffic it produces is
// incidental. Returns the new assignment (a fresh slice) and the number of
// nodes that changed engines.
func DiffusionRemap(in Input, previous []int) ([]int, int, error) {
	in.Cluster = false
	if err := in.defaults(); err != nil {
		return nil, 0, err
	}
	if in.Summary == nil {
		return nil, 0, fmt.Errorf("%w: diffusion remap requires a traffic summary", ErrBadInput)
	}
	n := in.Network.NumNodes()
	if len(in.Summary.NodePackets) != n {
		return nil, 0, fmt.Errorf("%w: summary covers %d nodes, network has %d",
			ErrBadInput, len(in.Summary.NodePackets), n)
	}
	if len(previous) != n {
		return nil, 0, fmt.Errorf("%w: assignment covers %d nodes, network has %d",
			ErrBadInput, len(previous), n)
	}
	next := append([]int(nil), previous...)

	nodeLoad := make([]float64, n)
	var total float64
	for v := range nodeLoad {
		w := in.Summary.NodePackets[v]
		if w < 1 {
			w = 1 // idle nodes still cost an engine slot, as in profileGraph
		}
		nodeLoad[v] = float64(w)
		total += nodeLoad[v]
	}
	load := make([]float64, in.K)
	count := make([]int, in.K)
	for v, p := range next {
		if p < 0 || p >= in.K {
			return nil, 0, fmt.Errorf("%w: node %d assigned to engine %d, want [0,%d)",
				ErrBadInput, v, p, in.K)
		}
		load[p] += nodeLoad[v]
		count[p]++
	}
	avg := total / float64(in.K)
	tol := in.PartOpts.Imbalance

	// Each accepted shift moves weight 0 < w < gap, strictly decreasing
	// Σ load², so the loop terminates; the iteration cap is a safety net.
	for iter := 0; iter < 8*n; iter++ {
		src, dst := 0, 0
		for e := 1; e < in.K; e++ {
			if load[e] > load[src] {
				src = e
			}
			if load[e] < load[dst] {
				dst = e
			}
		}
		gap := load[src] - load[dst]
		if load[src] <= avg*(1+tol) || gap <= 0 || count[src] <= 1 {
			break
		}
		// Greedy halving: the movable node closest to half the gap.
		bestV, bestD := -1, math.Inf(1)
		for v := range next {
			if next[v] != src {
				continue
			}
			w := nodeLoad[v]
			if w >= gap {
				continue
			}
			if d := math.Abs(w - gap/2); d < bestD {
				bestV, bestD = v, d
			}
		}
		if bestV < 0 {
			break
		}
		load[src] -= nodeLoad[bestV]
		load[dst] += nodeLoad[bestV]
		count[src]--
		count[dst]++
		next[bestV] = dst
	}

	moved := 0
	for v := range next {
		if next[v] != previous[v] {
			moved++
		}
	}
	return next, moved, nil
}
