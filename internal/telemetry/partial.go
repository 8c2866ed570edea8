package telemetry

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
)

// Distributed telemetry merge. Under the dist runtime each worker process
// owns a disjoint set of engines and, by the collector's single-writer
// discipline, a disjoint set of hot slots: matrix rows of its engines, tx
// slots of links whose transmitting endpoint it hosts, and the per-engine
// histograms/counters of its engines. Every non-owned slot stays zero for the
// whole run, so the coordinator reconstructs the exact in-process hot state by
// copying each worker's matrix rows and per-engine instruments and summing the
// full link arrays elementwise. The coordinator then drives Commit/Finish
// itself (replaying the window observer), so the published snapshots,
// timeline and /metrics exposition are byte-identical to an in-process run.

// Partial is one worker's share of the hot telemetry state, exported at a
// window barrier with its engines quiesced. All fields are value data —
// safe to encode onto a wire.
type Partial struct {
	// Engines lists the engines this worker owns, ascending.
	Engines []int
	// MatrixBytes/MatrixPackets hold one cumulative row per owned engine
	// (len(Engines)×Engines, row-major, same order as Engines).
	MatrixBytes   []int64
	MatrixPackets []int64

	// HasSlow marks that the slow-cadence state below is populated; workers
	// ship it only at measurement-window crossings and at the end of the run.
	HasSlow bool
	// LinkTxBytes/LinkTxPackets are the full 2×links arrays (non-owned slots
	// zero).
	LinkTxBytes   []int64
	LinkTxPackets []int64
	// QueueDelay and FCT are the owned engines' histograms (same order as
	// Engines); FlowsDone and Drops their counters.
	QueueDelay []*metrics.Histogram
	FCT        []*metrics.Histogram
	FlowsDone  []int64
	Drops      []int64
}

// NewRunHistogram returns an empty histogram with the run layout (the one
// every per-engine instrument uses) — the wire codec rebuilds received
// histograms onto it.
func NewRunHistogram() *metrics.Histogram {
	return metrics.MustLogHistogram(histLo, histHi, histPerDecade)
}

// ExportPartial captures this collector's share of the hot state for the
// given owned engines. Call it at a window barrier with the engines
// quiesced. slow selects whether the slow-cadence state rides along.
func (c *Collector) ExportPartial(engines []int, slow bool) *Partial {
	if c == nil {
		return nil
	}
	e := c.dims.Engines
	p := &Partial{
		Engines:       append([]int(nil), engines...),
		MatrixBytes:   make([]int64, 0, len(engines)*e),
		MatrixPackets: make([]int64, 0, len(engines)*e),
	}
	for _, eng := range engines {
		p.MatrixBytes = append(p.MatrixBytes, c.matrixBytes[eng*e:(eng+1)*e]...)
		p.MatrixPackets = append(p.MatrixPackets, c.matrixPackets[eng*e:(eng+1)*e]...)
	}
	if !slow {
		return p
	}
	p.HasSlow = true
	p.LinkTxBytes = append([]int64(nil), c.linkTxBytes...)
	p.LinkTxPackets = append([]int64(nil), c.linkTxPackets...)
	for _, eng := range engines {
		p.QueueDelay = append(p.QueueDelay, c.queueDelay[eng].CloneHistogram())
		p.FCT = append(p.FCT, c.fct[eng].CloneHistogram())
		p.FlowsDone = append(p.FlowsDone, c.flowsDone[eng])
		p.Drops = append(p.Drops, c.drops[eng])
	}
	return p
}

// ErrBadPartial marks a partial whose shape does not fit the run it is
// offered to. One that arrived over the wire is outside input: the receiver
// refuses it instead of indexing with it.
var ErrBadPartial = errors.New("telemetry: bad partial")

// CheckPartial reports whether p fits this run: one matrix row of the run's
// width per owned engine, every owned engine in range and, when the slow state
// rides along, link arrays of the run's length and one instrument set per
// owned engine. The error wraps ErrBadPartial. InstallPartials checks every
// partial itself; a coordinator calls this first, per sender, to know whose
// frame to refuse.
func (c *Collector) CheckPartial(p *Partial) error {
	if c == nil || p == nil {
		return nil
	}
	e, owned := c.dims.Engines, len(p.Engines)
	if len(p.MatrixBytes) != owned*e || len(p.MatrixPackets) != owned*e {
		return fmt.Errorf("%w: %d+%d matrix cells for %d engines of %d columns",
			ErrBadPartial, len(p.MatrixBytes), len(p.MatrixPackets), owned, e)
	}
	for _, eng := range p.Engines {
		if eng < 0 || eng >= e {
			return fmt.Errorf("%w: owns engine %d, outside [0,%d)", ErrBadPartial, eng, e)
		}
	}
	if !p.HasSlow {
		return nil
	}
	if len(p.LinkTxBytes) != len(c.linkTxBytes) || len(p.LinkTxPackets) != len(c.linkTxPackets) {
		return fmt.Errorf("%w: link arrays of %d and %d slots, the run has %d",
			ErrBadPartial, len(p.LinkTxBytes), len(p.LinkTxPackets), len(c.linkTxBytes))
	}
	if len(p.QueueDelay) != owned || len(p.FCT) != owned || len(p.FlowsDone) != owned || len(p.Drops) != owned {
		return fmt.Errorf("%w: instruments do not match its %d engines", ErrBadPartial, owned)
	}
	return nil
}

// InstallPartials overwrites the collector's hot state from the workers'
// latest partials (one per worker; together they must cover every engine
// exactly once). Matrix rows install every call; the slow-cadence arrays are
// rebuilt only when the partials carry them. Nothing is installed unless every
// partial passes CheckPartial. The caller is the coordinator at a barrier — no
// engine goroutines are running — and must follow up with Commit (or Finish)
// to republish, exactly as the in-process observer would.
func (c *Collector) InstallPartials(ps []*Partial) error {
	if c == nil {
		return nil
	}
	for _, p := range ps {
		if err := c.CheckPartial(p); err != nil {
			return err
		}
	}
	e := c.dims.Engines
	slow := false
	for _, p := range ps {
		if p == nil {
			continue
		}
		for i, eng := range p.Engines {
			copy(c.matrixBytes[eng*e:(eng+1)*e], p.MatrixBytes[i*e:(i+1)*e])
			copy(c.matrixPackets[eng*e:(eng+1)*e], p.MatrixPackets[i*e:(i+1)*e])
		}
		slow = slow || p.HasSlow
	}
	if !slow {
		return nil
	}
	clear(c.linkTxBytes)
	clear(c.linkTxPackets)
	for _, p := range ps {
		if p == nil || !p.HasSlow {
			continue
		}
		for i, v := range p.LinkTxBytes {
			c.linkTxBytes[i] += v
			c.linkTxPackets[i] += p.LinkTxPackets[i]
		}
		for i, eng := range p.Engines {
			c.queueDelay[eng] = p.QueueDelay[i].CloneHistogram()
			c.fct[eng] = p.FCT[i].CloneHistogram()
			c.flowsDone[eng] = p.FlowsDone[i]
			c.drops[eng] = p.Drops[i]
		}
	}
	return nil
}
