package telemetry

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
)

// Distributed telemetry merge. Under the dist runtime each worker process
// owns a disjoint set of engines and, by the collector's single-writer
// discipline, their histograms. The matrix, link totals and drops need no
// merge of their own: they are folded on the coordinator from the link
// counters the workers' reports carry. The coordinator installs each worker's
// histograms, folds and drives Commit/Finish itself (replaying the window
// observer), so the published snapshots, timeline and /metrics exposition are
// byte-identical to an in-process run.

// Partial is one worker's share of the measured telemetry — its engines'
// queue-delay and FCT histograms — exported at a window barrier with its
// engines quiesced. All fields are value data, safe to encode onto a wire.
type Partial struct {
	// Engines lists the engines this worker owns, ascending.
	Engines []int
	// QueueDelay and FCT are the owned engines' histograms, in the order of
	// Engines.
	QueueDelay []*metrics.Histogram
	FCT        []*metrics.Histogram
}

// NewRunHistogram returns an empty histogram with the run layout (the one
// every per-engine instrument uses) — the wire codec rebuilds received
// histograms onto it.
func NewRunHistogram() *metrics.Histogram {
	return metrics.MustLogHistogram(histLo, histHi, histPerDecade)
}

// ExportPartial captures this collector's histograms for the given owned
// engines. Call it at a window barrier with the engines quiesced.
func (c *Collector) ExportPartial(engines []int) *Partial {
	if c == nil {
		return nil
	}
	p := &Partial{Engines: append([]int(nil), engines...)}
	for _, eng := range engines {
		p.QueueDelay = append(p.QueueDelay, c.queueDelay[eng].CloneHistogram())
		p.FCT = append(p.FCT, c.fct[eng].CloneHistogram())
	}
	return p
}

// ErrBadPartial marks a partial whose shape does not fit the run it is
// offered to. One that arrived over the wire is outside input: the receiver
// refuses it instead of indexing with it.
var ErrBadPartial = errors.New("telemetry: bad partial")

// CheckPartial reports whether p fits this run: every owned engine in range
// and one histogram pair per owned engine. The error wraps ErrBadPartial.
// InstallPartials checks every partial itself; a coordinator calls this
// first, per sender, to know whose frame to refuse.
func (c *Collector) CheckPartial(p *Partial) error {
	if c == nil || p == nil {
		return nil
	}
	for _, eng := range p.Engines {
		if eng < 0 || eng >= c.dims.Engines {
			return fmt.Errorf("%w: owns engine %d, outside [0,%d)", ErrBadPartial, eng, c.dims.Engines)
		}
	}
	if owned := len(p.Engines); len(p.QueueDelay) != owned || len(p.FCT) != owned {
		return fmt.Errorf("%w: %d+%d histograms for its %d engines", ErrBadPartial, len(p.QueueDelay), len(p.FCT), owned)
	}
	return nil
}

// InstallPartials overwrites the named engines' histograms from the workers'
// latest partials. Nothing is installed unless every partial passes
// CheckPartial. The caller is the coordinator at a barrier — no engine
// goroutines are running — and must follow up with Commit (or Finish) to
// republish, exactly as the in-process observer would.
func (c *Collector) InstallPartials(ps []*Partial) error {
	if c == nil {
		return nil
	}
	for _, p := range ps {
		if err := c.CheckPartial(p); err != nil {
			return err
		}
	}
	for _, p := range ps {
		if p == nil {
			continue
		}
		for i, eng := range p.Engines {
			c.queueDelay[eng] = p.QueueDelay[i].CloneHistogram()
			c.fct[eng] = p.FCT[i].CloneHistogram()
		}
	}
	return nil
}
