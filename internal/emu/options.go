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

// WithRecorder attaches an observability recorder (see internal/obs) to the
// run: it receives per-window per-engine counters and recovery lifecycle
// events, on the coordinating goroutine. May be given multiple times; nil
// recorders are ignored. Any recorder implies WithStats.
func WithRecorder(r obs.Recorder) Option {
	return func(o *runOptions) {
		if r != nil {
			o.recorders = append(o.recorders, r)
			o.stats = true
		}
	}
}

// WithStats attaches the obs.RunStats summary to Result.Obs. It adds no
// recorder: the window totals are the kernel's own, and the lifecycle counts
// and queue peaks are tallied where the run emits them.
func WithStats() Option {
	return func(o *runOptions) { o.stats = true }
}

// WithTelemetry attaches a traffic-plane telemetry collector (see
// internal/telemetry) to the run. The emulator sizes it for the run's
// topology, feeds it a queue delay per forwarded packet group and an FCT per
// completed flow, commits every window to it and has it fold the link
// counters at measurement-window crossings, before membership changes and at
// the end; Result.Telemetry carries the final snapshot. The collector may be shared with a live HTTP
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
// Config.Routes) — a netgraph.LazyRouting of another row capacity, say; the
// emulator resolves every endpoint pair's path through it once, up front, so
// oracle query cost never touches the kernel hot loop. A nil oracle is
// ignored.
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
