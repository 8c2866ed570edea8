package emu

import (
	"context"

	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Option configures a Run beyond the base Config — the growth path for new
// knobs, so Config stays the stable description of *what* to emulate while
// options say *how* to run it (observability, cancellation, route oracle).
type Option func(*runOptions)

type runOptions struct {
	ctx       context.Context
	recorders []obs.Recorder
	stats     bool
	tel       *telemetry.Collector
	routes    netgraph.Routing
	trace     *obs.Timeline
}

func (o *runOptions) apply(opts []Option) {
	for _, opt := range opts {
		if opt != nil {
			opt(o)
		}
	}
}

// recorder assembles the recorder chain for the run: the caller's recorders
// plus, when any observability is requested, an aggregating RunStats
// collector whose summary is attached to Result.Obs. Returns (nil, nil) when
// observability is fully disabled — the zero-cost path.
func (o *runOptions) recorder() (obs.Recorder, *obs.RunStats) {
	if len(o.recorders) == 0 && !o.stats {
		return nil, nil
	}
	stats := obs.NewRunStats()
	return obs.Multi(append(append([]obs.Recorder(nil), o.recorders...), stats)...), stats
}

// WithRecorder attaches an observability recorder (see internal/obs) to the
// run: it receives per-window per-engine counters and recovery lifecycle
// events. May be given multiple times; nil recorders are ignored. Any
// recorder implies WithStats.
func WithRecorder(r obs.Recorder) Option {
	return func(o *runOptions) {
		if r != nil {
			o.recorders = append(o.recorders, r)
		}
	}
}

// WithStats collects an aggregated obs.RunStats summary into Result.Obs
// without attaching any external recorder.
func WithStats() Option {
	return func(o *runOptions) { o.stats = true }
}

// WithTelemetry attaches a traffic-plane telemetry collector (see
// internal/telemetry) to the run. The emulator sizes it for the run's
// topology, feeds it from the packet hot path and the window commit, and
// publishes consistent snapshots at every window barrier; Result.Telemetry
// carries the final snapshot. The collector may be shared with a live HTTP
// mount (telemetry.Mount) for the duration of the run. A nil collector is
// ignored — the hot path then stays on its zero-allocation disabled branch.
func WithTelemetry(c *telemetry.Collector) Option {
	return func(o *runOptions) { o.tel = c }
}

// WithTrace attaches a distributed tracing timeline (see internal/obs) to
// the run. The window commit records one deterministic compute span per
// active engine per window — virtual bounds plus modeled busy seconds, with
// straggler factors applied — and derives barrier-wait spans and the online
// straggler attribution from them. A nil timeline is ignored; with tracing
// off the commit takes a single nil-check and allocates nothing.
func WithTrace(t *obs.Timeline) Option {
	return func(o *runOptions) { o.trace = t }
}

// WithRouting overrides the run's route oracle (taking precedence over
// Config.Routes). Any netgraph.Routing backend works — the flat table, the
// lazy per-source oracle, or a hierarchical/clustered table; the emulator
// resolves every endpoint pair's path through it once, up front, so oracle query cost
// never touches the kernel hot loop. A nil oracle is ignored.
func WithRouting(r netgraph.Routing) Option {
	return func(o *runOptions) {
		if r != nil {
			o.routes = r
		}
	}
}

// WithContext threads a cancellation context through the run. Cancellation
// is observed at window barriers — between windows, never mid-handler — and
// surfaces as an error wrapping ctx.Err().
func WithContext(ctx context.Context) Option {
	return func(o *runOptions) {
		if ctx != nil && ctx != context.Background() {
			o.ctx = ctx
		}
	}
}
