package mapping

import (
	"fmt"
	"strings"

	"repro/internal/emu"
	"repro/internal/netgraph"
)

// Quality reports why a mapping is good or bad in the paper's terms: the
// balance of each constraint, the two objectives' cuts, and the conservative
// lookahead the assignment yields.
type Quality struct {
	// NodesPerEngine counts virtual nodes per engine.
	NodesPerEngine []int
	// MemoryPerEngine is the predicted routing-table memory per engine.
	MemoryPerEngine []int64
	// Lookahead is the minimum latency cut by the assignment (the DES
	// window width, §2.2.3 objective one).
	Lookahead float64
	// CutLinks is the number of network links crossing engines; CutTraffic
	// is only meaningful when measured traffic was supplied (packets over
	// cut links — objective two).
	CutLinks   int
	CutTraffic int64
}

// Assess computes the Quality of an assignment. summaryLinkPackets (one entry
// per link) may be nil when no profile is available (CutTraffic stays 0).
func Assess(nw *netgraph.Network, assignment []int, k int, summaryLinkPackets []int64) Quality {
	q := Quality{
		NodesPerEngine:  make([]int, k),
		MemoryPerEngine: PredictMemory(nw, assignment, k),
		Lookahead:       emu.Lookahead(nw, assignment, 0),
	}
	for _, e := range assignment {
		q.NodesPerEngine[e]++
	}
	for _, l := range nw.Links {
		if assignment[l.A] != assignment[l.B] {
			q.CutLinks++
			if summaryLinkPackets != nil {
				q.CutTraffic += summaryLinkPackets[l.ID]
			}
		}
	}
	return q
}

// String renders the quality report.
func (q Quality) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes/engine: %v\n", q.NodesPerEngine)
	fmt.Fprintf(&b, "memory/engine: %v\n", q.MemoryPerEngine)
	fmt.Fprintf(&b, "lookahead: %.3gms   cut links: %d", q.Lookahead*1e3, q.CutLinks)
	if q.CutTraffic > 0 {
		fmt.Fprintf(&b, "   cut traffic: %d packets", q.CutTraffic)
	}
	b.WriteString("\n")
	return b.String()
}
