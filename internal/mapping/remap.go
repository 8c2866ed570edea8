package mapping

import (
	"fmt"

	"repro/internal/partition"
)

// RemapOnto redistributes the virtual network onto an arbitrary target engine
// set — the membership-change and crash-recovery remap: the TOP partitioning
// instance (bandwidth + memory constraints, latency objective) is rebuilt with
// one part per target engine. It covers both directions: shrink (crash or
// graceful drain: the target set omits departed engines, so their nodes strand
// and are re-seeded greedily onto the least-loaded targets) and grow (elastic
// join: the target set includes fresh engines that start with empty parts and
// are filled from the biggest donors before refinement). Nodes already on a
// target engine keep it in the seed, so partition.Improve moves state only
// when the balance gain pays for the migration. engineLoads, when provided,
// orders the greedy seeding by measured engine load; otherwise seeded
// bandwidth weight is used alone.
//
// The returned assignment is in engine-ID space (values drawn from engines)
// together with the number of nodes that changed engines.
func RemapOnto(in Input, previous []int, engines []int, engineLoads []float64) ([]int, int, error) {
	if err := in.defaults(); err != nil {
		return nil, 0, err
	}
	nw := in.Network
	if len(previous) != nw.NumNodes() {
		return nil, 0, fmt.Errorf("%w: remap: previous assignment covers %d nodes, network has %d",
			ErrBadInput, len(previous), nw.NumNodes())
	}
	if len(engines) == 0 {
		return nil, 0, fmt.Errorf("%w: remap: no target engines", ErrInfeasible)
	}

	slotOf := make(map[int]int, len(engines))
	for slot, eng := range engines {
		slotOf[eng] = slot
	}
	m := len(engines)

	if m == 1 {
		// Nothing to balance: everything lands on the lone target.
		next := make([]int, len(previous))
		moved := 0
		for v := range next {
			next[v] = engines[0]
			if previous[v] != engines[0] {
				moved++
			}
		}
		return next, moved, nil
	}

	// The TOP instance: bandwidth + memory constraints, latency objective —
	// the information still available when the profiling of the current run
	// was lost with the crash.
	g, objs := topGraph(nw)
	lat := objs[0]

	// Seed: nodes already on a target engine keep it; stranded nodes go to
	// the least-loaded target one by one (deterministic ID order), tracking
	// the running bandwidth-weight tally so a big departed engine spreads
	// over several targets instead of piling onto one.
	tally := make([]float64, m)
	if len(engineLoads) > 0 {
		for slot, eng := range engines {
			if eng < len(engineLoads) {
				tally[slot] = engineLoads[eng]
			}
		}
		// Normalize measured load into the same order of magnitude as the
		// bandwidth weights so both regimes mix sensibly.
		var maxLoad, maxW float64
		for _, t := range tally {
			if t > maxLoad {
				maxLoad = t
			}
		}
		for v := 0; v < nw.NumNodes(); v++ {
			maxW += float64(g.VWgt[v][0])
		}
		if maxLoad > 0 {
			for slot := range tally {
				tally[slot] = tally[slot] / maxLoad * maxW / float64(m)
			}
		}
	}
	part := make([]int, len(previous))
	for v, eng := range previous {
		if slot, ok := slotOf[eng]; ok {
			part[v] = slot
			tally[slot] += float64(g.VWgt[v][0])
		} else {
			part[v] = -1
		}
	}
	for v, slot := range part {
		if slot >= 0 {
			continue
		}
		best := 0
		for s := 1; s < m; s++ {
			if tally[s] < tally[best] {
				best = s
			}
		}
		part[v] = best
		tally[best] += float64(g.VWgt[v][0])
	}

	// partition.Improve refuses empty parts; a target can end up empty if it
	// owned no nodes before (a crash survivor that hosted nothing, or a
	// freshly joined engine) and no stranded node reached it.
	counts := make([]int, m)
	for _, slot := range part {
		counts[slot]++
	}
	for slot := 0; slot < m; slot++ {
		if counts[slot] > 0 {
			continue
		}
		donor := 0
		for s := 1; s < m; s++ {
			if counts[s] > counts[donor] {
				donor = s
			}
		}
		for v := len(part) - 1; v >= 0; v-- {
			if part[v] == donor {
				part[v] = slot
				counts[donor]--
				counts[slot]++
				break
			}
		}
	}

	g.SetWeights(lat)
	if _, err := partition.Improve(g, part, m, in.PartOpts); err != nil {
		return nil, 0, fmt.Errorf("mapping: remap: %w", err)
	}

	next := make([]int, len(part))
	moved := 0
	for v, slot := range part {
		next[v] = engines[slot]
		if next[v] != previous[v] {
			moved++
		}
	}
	return next, moved, nil
}
