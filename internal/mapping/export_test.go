package mapping

import (
	"fmt"

	"repro/internal/partition"
)

// Instance returns what approach a (TOP, PLACE or PROFILE) hands the
// partitioner for in, defaults applied: the graph, its edge-weight
// objectives, their §2.3 priorities (nil for one objective) and the
// partitioner options. The instance partitioned by BestOfTrials is the
// approach's own answer.
func Instance(a Approach, in Input) (*partition.Graph, []partition.EdgeWeightSet, []float64, partition.Options, error) {
	if err := in.defaults(); err != nil {
		return nil, nil, nil, in.PartOpts, err
	}
	switch a {
	case Top:
		g, objs := topGraph(in.Network)
		return g, objs, nil, in.PartOpts, nil
	case Place:
		g, objs := placeGraph(&in)
		return g, objs, in.priorities(), in.PartOpts, nil
	case Profile:
		g, objs, err := profileGraph(&in)
		return g, objs, in.priorities(), in.PartOpts, err
	}
	return nil, nil, nil, in.PartOpts, fmt.Errorf("%w: no instance seam for %q", ErrBadInput, a)
}

// BestOfTrials is the partitioning of one mapping call.
var BestOfTrials = bestOfTrials
