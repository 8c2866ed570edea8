// Package core orchestrates the paper's full network-mapping pipeline
// (Figure 1): take a virtual network plus traffic information, build the
// partitioning problem for the chosen approach, run the multilevel
// partitioner, and execute the distributed emulation on the resulting
// assignment — including the PROFILE approach's two-phase flow, where an
// initial TOP-partitioned profiling run collects NetFlow data that drives a
// repartition.
//
// It is the public face the command-line tools, examples, and the experiment
// harness share.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/apps"
	"repro/internal/dist"
	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// Scenario is one emulation study: a topology, an engine count, a background
// traffic condition, and an optional foreground application.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Network is the virtual topology. Required.
	Network *netgraph.Network
	// Engines is the number of simulation-engine nodes. Required.
	Engines int

	// Background, when non-nil, adds background traffic (the paper's HTTP
	// model or any other traffic.Background such as CBR or on/off).
	Background traffic.Background

	// App, when non-nil, adds a foreground application on AppHosts (chosen
	// automatically when empty: hosts spread evenly across the network).
	App apps.App
	// AppSeed drives the application's traffic generation.
	AppSeed int64
	// AppHosts overrides the automatic injection-point choice.
	AppHosts []int

	// PartSeed seeds the partitioner.
	PartSeed int64
	// LatencyPriority is the multi-objective p in (0, 1] (0: the default 6:4).
	LatencyPriority float64
	// Cluster enables §3.3 timeline clustering in the PROFILE approach.
	Cluster bool
	// Transport selects the flow release model (Blast or TCPSlowStart).
	Transport emu.TransportMode
	// EngineSpeeds optionally models a heterogeneous cluster: relative
	// speeds per engine. Mapping approaches target load proportional to
	// speed; the emulator divides per-event cost by the engine's speed.
	EngineSpeeds []float64
	// RemapEvery, when nonzero, remaps the run every this many virtual seconds
	// from the approach's mapping (see dynamic.go). Run refuses a value that is
	// not positive or cuts the workload into more than 2¹⁶ intervals.
	RemapEvery float64
	// Remap selects the repartitioning policy at each RemapEvery boundary:
	// RemapProfile (from scratch; also what empty means), RemapGame or
	// RemapDiffusion.
	Remap RemapPolicy
	// MigrationCost is the AppTime stall per node that changes engines at an
	// in-process crash recovery or remap (default DefaultMigrationCost).
	MigrationCost float64
	// CheckpointEvery spaces an in-process run's cadence barriers; a crash is
	// charged the run since the last one (default emu.DefaultCheckpointEvery).
	CheckpointEvery float64
	// Cost overrides the engine cost model (zero = PentiumIICluster).
	Cost emu.CostModel
	// EndTime optionally truncates the emulation.
	EndTime float64

	// Recorder, when non-nil, receives kernel observability from every
	// emulation the scenario runs (profiling pre-runs included) — e.g. an
	// obs.Trace writing JSONL.
	Recorder obs.Recorder
	// CollectStats attaches the obs.RunStats run summary to each emulation
	// result (Result.Obs) without requiring an external recorder.
	CollectStats bool
	// CollectTelemetry attaches a fresh traffic-plane telemetry collector
	// (internal/telemetry) to each emulation, surfacing the engine traffic
	// matrix, link totals, latency histograms and per-window timeline on
	// Result.Telemetry. Each emulation gets its own collector, so approaches
	// may still run concurrently.
	CollectTelemetry bool
	// TelemetryCollector, when non-nil, is the single live collector every
	// emulation feeds — the one a debug endpoint mounts (telemetry.Mount).
	// It implies CollectTelemetry; because the collector is re-sized per run,
	// RunAll serializes approaches when it is set (like Recorder) and the
	// live view always shows the most recent emulation.
	TelemetryCollector *telemetry.Collector
	// Trace, when non-nil, collects the window timeline (per-engine compute
	// spans, barrier-wait attribution) of every main run into an
	// obs.Timeline — the source for Chrome trace_event export and straggler
	// attribution. PROFILE pre-runs are excluded so the timeline describes
	// exactly one emulation.
	Trace *obs.Timeline
	// ClusterHealth, when non-nil, receives the coordinator's live
	// cluster-health signal during a run on workers — worker count,
	// per-worker gated windows and critical-path share, the window-lag
	// histogram, heartbeat RTTs. Mount it with telemetry.MountCluster.
	// Attribution needs Trace set too; in-process runs leave it untouched.
	ClusterHealth *telemetry.ClusterHealth
	// Faults, when non-nil, is the run's fault schedule. Stragglers and
	// degradations slow the scheduled engines in the cost model, in-process
	// and on workers alike; Trace and ClusterHealth report who gates the
	// windows. A crash fail-stops its engine, and the in-process run rolls back
	// to the last checkpoint and repartitions the dead engine's nodes across
	// the survivors. PROFILE's pre-run leaves the crashes out.
	Faults *faults.Schedule
	// NaiveRecovery recovers crashes with NaiveRecovery instead of
	// repartitioning: the baseline that remapping must beat.
	NaiveRecovery bool

	workload *traffic.Workload
	appHosts []int
}

// Outcome is the result of running one mapping approach on a scenario.
type Outcome struct {
	Approach mapping.Approach
	// Assignment is the mapping the run started on; Result.FinalAssignment is
	// the one it ended on (they differ after a crash recovery or a resize).
	Assignment []int
	Result     *emu.Result

	// Segments views a remapped run (Scenario.RemapEvery) interval by
	// interval, in order; nil for any other run.
	Segments []DynamicSegment
	// MeanSegmentImbalance averages the imbalances of the reached segments in
	// which flows started: the quantity remapping optimizes.
	MeanSegmentImbalance float64
	// Migrations totals the nodes that changed engines at remap boundaries.
	Migrations int

	// Membership is an elastic run's log (the Elastic option), which Replay
	// re-runs in-process; nil for any other run.
	Membership *dist.MembershipLog
}

// Routes returns the scenario's route oracle, the network's shared one
// (netgraph.Network.SharedRouting), so every downstream consumer (mapping,
// emulation, route discovery) reuses one set of cached columns. The error is
// always nil.
func (sc *Scenario) Routes() (netgraph.Routing, error) {
	return sc.Network.SharedRouting(), nil
}

// SpreadHosts picks n injection points spread evenly over the network's
// hosts in ID order — the deterministic default placement.
func SpreadHosts(nw *netgraph.Network, n int) []int {
	hosts := nw.Hosts()
	if n >= len(hosts) {
		return hosts
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = hosts[i*len(hosts)/n]
	}
	return out
}

// AppPlacement returns the scenario's injection points (resolving the
// automatic choice on first use). Nil when there is no foreground app.
func (sc *Scenario) AppPlacement() []int {
	if sc.App == nil {
		return nil
	}
	if sc.appHosts == nil {
		if len(sc.AppHosts) > 0 {
			sc.appHosts = sc.AppHosts
		} else {
			sc.appHosts = SpreadHosts(sc.Network, sc.App.Hosts())
		}
	}
	return sc.appHosts
}

// SetWorkload installs a pre-built workload (e.g. a recorded trace being
// replayed), overriding traffic generation. It must validate against the
// scenario's network.
func (sc *Scenario) SetWorkload(w traffic.Workload) {
	sc.workload = &w
}

// Workload returns (generating once) the background and foreground traffic
// in one exactly sized slice, the application's flows after the background's.
// All approaches are evaluated against this same workload, as the paper does.
func (sc *Scenario) Workload() (traffic.Workload, error) {
	if sc.workload != nil {
		return *sc.workload, nil
	}
	var w traffic.Workload
	if sc.App != nil {
		hosts := sc.AppPlacement()
		if len(hosts) != sc.App.Hosts() {
			return traffic.Workload{}, fmt.Errorf(
				"core: app %s needs %d hosts, network offers %d",
				sc.App.Name(), sc.App.Hosts(), len(hosts))
		}
		var err error
		if w, err = sc.App.Generate(hosts, sc.AppSeed); err != nil {
			return traffic.Workload{}, err
		}
		slices.Sort(w.AppHosts)
		w.AppHosts = slices.Compact(w.AppHosts)
	}
	if sc.Background != nil {
		bg := sc.Background.Generate(sc.Network, w)
		w.Flows, w.Duration = bg.Flows, max(w.Duration, bg.Duration)
	}
	if err := w.Validate(sc.Network); err != nil {
		return traffic.Workload{}, err
	}
	sc.workload = &w
	return w, nil
}

// MappingInput assembles the approach-independent mapping parameters, for
// callers driving mapping strategies (e.g. baselines) outside Run. The error
// is always nil.
func (sc *Scenario) MappingInput() (mapping.Input, error) { return sc.mappingInput(), nil }

// mappingInput assembles the approach-independent mapping parameters.
func (sc *Scenario) mappingInput() mapping.Input {
	return mapping.Input{
		Network:         sc.Network,
		Routes:          sc.Network.SharedRouting(),
		K:               sc.Engines,
		PartOpts:        partition.Options{Seed: sc.PartSeed},
		LatencyPriority: sc.LatencyPriority,
		Cluster:         sc.Cluster,
		EngineFractions: sc.EngineSpeeds,
	}
}

// Partition computes the assignment for one approach without emulating.
// For PROFILE this includes the profiling pre-run, which observes ctx.
func (sc *Scenario) Partition(ctx context.Context, a mapping.Approach) ([]int, *emu.Result, error) {
	in := sc.mappingInput()
	switch a {
	case mapping.Top:
		part, err := mapping.TopMap(in)
		return part, nil, err
	case mapping.Place:
		if sc.Background != nil {
			in.Background = sc.Background.Predict(sc.Network)
		}
		in.AppHosts = sc.AppPlacement()
		part, err := mapping.PlaceMap(in)
		return part, nil, err
	case mapping.Profile:
		// Phase 1: profiling run under the initial (TOP) partition.
		topPart, err := mapping.TopMap(in)
		if err != nil {
			return nil, nil, fmt.Errorf("core: PROFILE initial partition: %w", err)
		}
		cfg, err := sc.emuConfig(topPart)
		if err != nil {
			return nil, nil, err
		}
		// The pre-run collects NetFlow and stays off the scenario's timeline;
		// it profiles the network's traffic, not a crash's.
		cfg.Profile = true
		if sc.Faults.HasCrashes() {
			f := *sc.Faults
			f.Crashes = nil
			cfg.Faults = &f
		}
		profRes, err := sc.start(ctx, cfg, sc.newTelemetry(), nil)
		if err != nil {
			return nil, nil, fmt.Errorf("core: PROFILE profiling run: %w", err)
		}
		// Phase 2: repartition from the NetFlow summary.
		in.Summary = profRes.NetFlow.Summarize()
		part, err := mapping.ProfileMap(in)
		return part, profRes, err
	default:
		return nil, nil, fmt.Errorf("core: unknown approach %q", a)
	}
}

// ErrRunConfig marks a Run whose scenario and options do not combine, or
// whose RemapEvery cuts the workload into no valid intervals.
var ErrRunConfig = errors.New("core: run configuration")

// RunOption says where a run's engines execute: in-process without one; the
// last one given wins.
type RunOption func(*placement)

type placement struct {
	workers []dist.Conn
	dist    *dist.Options
	elastic *dist.ElasticOptions
	log     *dist.MembershipLog // replayed in-process from start
	start   []int
}

// OnWorkers runs the engines on the given worker connections (dist.Run). A
// lost worker degrades into the in-process crash recovery: the run re-runs
// with its engines fail-stopped, and Result.Recovery reports the remap.
func OnWorkers(workers []dist.Conn, opt dist.Options) RunOption {
	return func(p *placement) { *p = placement{workers: workers, dist: &opt} }
}

// Elastic runs the engines on workers that join (opt.Joins), drain or die
// mid-run (dist.RunElastic). Scenario.Engines is the capacity: the run starts
// from TOP over the first len(workers)×EnginesPerWorker engines, and each
// membership change repartitions as a crash does unless opt.OnResize is set.
// Outcome.Membership is the log Replay re-runs.
func Elastic(workers []dist.Conn, opt dist.ElasticOptions) RunOption {
	return func(p *placement) { *p = placement{workers: workers, elastic: &opt} }
}

// Replay re-runs an elastic run in-process from its starting assignment
// (Outcome.Assignment) and membership log: its resizes, its lost workers as
// engine fail-stops, and its checkpoint cadence. It is the equivalence oracle
// for elastic runs, and an offline reproduction tool.
func Replay(start []int, log *dist.MembershipLog) RunOption {
	return func(p *placement) { *p = placement{start: start, log: log} }
}

// Run executes one approach end to end: partition (profiling first if
// PROFILE), then emulate the shared workload on the resulting assignment.
// The scenario says who changes membership mid-run (Faults' crashes, the
// RemapEvery policy), opts where the engines run; what does not combine is
// refused with ErrRunConfig (see checkRun). Cancellation of ctx is observed
// at window barriers; pass context.Background() (or nil) to run to completion.
func (sc *Scenario) Run(ctx context.Context, a mapping.Approach, opts ...RunOption) (o *Outcome, err error) {
	defer func() {
		if err != nil {
			o, err = nil, fmt.Errorf("core: %s on %s: %w", a, sc.Name, err)
		}
	}()
	var p placement
	for _, opt := range opts {
		opt(&p)
	}
	if err := sc.checkRun(a, &p); err != nil {
		return nil, err
	}
	o = &Outcome{Approach: a, Assignment: p.start}
	switch {
	case p.elastic != nil:
		o.Assignment, err = sc.topOver(len(p.workers) * max(p.elastic.EnginesPerWorker, 1))
	case p.log == nil:
		o.Assignment, _, err = sc.Partition(ctx, a)
	}
	if err != nil {
		return nil, err
	}
	cfg, err := sc.emuConfig(o.Assignment)
	if err != nil {
		return nil, err
	}
	switch {
	case p.elastic != nil:
		if p.elastic.OnResize == nil {
			p.elastic.OnResize = sc.remapOnto
		}
		o.Result, o.Membership, err = dist.RunElastic(ctx, sc.distSpec(ctx, cfg), p.workers, *p.elastic)
	case p.dist != nil:
		o.Result, err = dist.Run(ctx, sc.distSpec(ctx, cfg), p.workers, *p.dist)
	case p.log != nil:
		o.Result, err = sc.start(ctx, p.log.ReplayConfig(cfg, sc.remapOnto), sc.newTelemetry(), sc.Trace)
	default:
		cfg.MigrationCost, cfg.CheckpointEvery, cfg.OnMembership = sc.MigrationCost, sc.CheckpointEvery, sc.remapOnto
		if sc.NaiveRecovery {
			cfg.OnMembership = NaiveRecovery
		}
		if sc.RemapEvery != 0 {
			err = sc.runDynamic(ctx, cfg, o)
		} else {
			o.Result, err = sc.start(ctx, cfg, sc.newTelemetry(), sc.Trace)
		}
	}
	return o, err
}

// checkRun refuses what the scenario and placement p cannot run together: a
// crash schedule, RemapEvery, NaiveRecovery, MigrationCost and
// CheckpointEvery drive in-process membership changes only, RemapEvery takes
// no crash schedule, and an elastic run starts from TOP.
func (sc *Scenario) checkRun(a mapping.Approach, p *placement) error {
	inProcess := sc.Faults.HasCrashes() || sc.RemapEvery != 0 || sc.NaiveRecovery ||
		sc.MigrationCost != 0 || sc.CheckpointEvery != 0
	var why string
	switch {
	case (p.elastic != nil || p.log != nil) && a != mapping.Top:
		why = fmt.Sprintf("an elastic run and its replay start from TOP, not %s", a)
	case (p.dist != nil || p.elastic != nil || p.log != nil) && inProcess:
		why = "a crash schedule, RemapEvery, NaiveRecovery, MigrationCost and CheckpointEvery drive in-process membership changes; " +
			"on workers and in a replay, dist decides membership"
	case sc.RemapEvery != 0 && sc.Faults.HasCrashes():
		why = "a remap resizes onto every engine, a crashed one included, so RemapEvery takes no crash schedule"
	case sc.RemapEvery != 0:
		if _, err := sc.remapPolicy(); err != nil {
			return err
		}
		_, err := sc.intervals()
		return err
	default:
		return nil
	}
	return fmt.Errorf("%w: %s", ErrRunConfig, why)
}

// topOver is the TOP partition over the first k engines, the start of an
// elastic run.
func (sc *Scenario) topOver(k int) ([]int, error) {
	if k <= 0 || k > sc.Engines {
		return nil, fmt.Errorf("%d initial engines exceed capacity %d", k, sc.Engines)
	}
	in := sc.mappingInput()
	in.K = k
	return mapping.TopMap(in)
}

// distSpec is the coordinator's description of a run of cfg, a lost worker
// recovered by the scenario's one membership policy.
func (sc *Scenario) distSpec(ctx context.Context, cfg emu.Config) *dist.RunSpec {
	return &dist.RunSpec{
		Cfg:          cfg,
		Telemetry:    sc.newTelemetry(),
		Trace:        sc.Trace,
		Health:       sc.ClusterHealth,
		EmuOpts:      sc.runOptions(ctx),
		OnWorkerLoss: sc.remapOnto,
	}
}

// remapOnto is the scenario's one membership policy, behind a crash, a lost
// worker, an elastic join or drain and their replays: it repartitions the
// network onto the engine set the run continues on, from the previous one.
func (sc *Scenario) remapOnto(c emu.MembershipChange) ([]int, error) {
	in := sc.mappingInput()
	next, _, err := mapping.RemapOnto(in, c.Previous, c.Engines, c.Loads)
	return next, err
}

// NaiveRecovery dumps every node of the dead engine onto the least-loaded
// surviving member: the baseline (Scenario.NaiveRecovery) remapping must beat.
func NaiveRecovery(c emu.MembershipChange) ([]int, error) {
	if len(c.Engines) == 0 {
		return nil, fmt.Errorf("core: engine %d was the last one standing", c.Dead)
	}
	target := c.Engines[0]
	for _, e := range c.Engines[1:] {
		if c.Loads[e] < c.Loads[target] {
			target = e
		}
	}
	next := append([]int(nil), c.Previous...)
	for v, e := range next {
		if e == c.Dead {
			next[v] = target
		}
	}
	return next, nil
}

// RunAll evaluates all three approaches on the same workload, reported in
// the paper's order. The approaches are independent given the scenario's
// shared (memoized) routing and workload, so they run concurrently on a
// bounded worker pool; outcomes are returned in approach order regardless of
// completion order, and every approach remains individually deterministic.
// When a Recorder is attached the approaches run serially instead, keeping
// the shared trace's record order deterministic.
func (sc *Scenario) RunAll(ctx context.Context) ([]*Outcome, error) {
	// Materialize the lazily-memoized shared state before fanning out: the
	// memoization writes (workload, app placement) are unsynchronized by
	// design — after this point every approach only reads them. The shared
	// route oracle locks its own memoization.
	if _, err := sc.Workload(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", sc.Name, err)
	}
	sc.AppPlacement()

	as := mapping.Approaches()
	workers := 0
	if sc.Recorder != nil || sc.TelemetryCollector != nil {
		// A shared trace must keep record order deterministic; a shared live
		// telemetry collector is re-sized per run and can only feed one
		// emulation at a time.
		workers = 1
	}
	out := make([]*Outcome, len(as))
	err := parallel.ForEachErr(len(as), workers, func(i int) error {
		o, err := sc.Run(ctx, as[i])
		out[i] = o
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runOptions translates the scenario's observability and cancellation
// settings into emu options, shared by every emulation the scenario starts.
func (sc *Scenario) runOptions(ctx context.Context) []emu.Option {
	var opts []emu.Option
	if ctx != nil {
		opts = append(opts, emu.WithContext(ctx))
	}
	if sc.Recorder != nil {
		opts = append(opts, emu.WithRecorder(sc.Recorder))
	}
	if sc.CollectStats {
		opts = append(opts, emu.WithStats())
	}
	return opts
}

// newTelemetry resolves the collector for one emulation: the scenario's
// shared live collector when set, a fresh one per run under
// CollectTelemetry, nil otherwise.
func (sc *Scenario) newTelemetry() *telemetry.Collector {
	if sc.TelemetryCollector != nil {
		return sc.TelemetryCollector
	}
	if sc.CollectTelemetry {
		return telemetry.New()
	}
	return nil
}

// emuConfig is the emulator configuration every run mode starts from: the
// scenario's network, route oracle, shared workload and cost/transport/fault
// settings under the given assignment. Callers extend it (a PROFILE pass, a
// recovery hook, an elastic schedule).
func (sc *Scenario) emuConfig(assignment []int) (emu.Config, error) {
	w, err := sc.Workload()
	if err != nil {
		return emu.Config{}, err
	}
	return emu.Config{
		Network:      sc.Network,
		Routes:       sc.Network.SharedRouting(),
		Assignment:   assignment,
		NumEngines:   sc.Engines,
		Workload:     w,
		Cost:         sc.Cost,
		EndTime:      sc.EndTime,
		Transport:    sc.Transport,
		EngineSpeeds: sc.EngineSpeeds,
		Faults:       sc.Faults,
	}, nil
}

// start is the one way the scenario begins an in-process run: cfg under the
// scenario's observability and cancellation settings, feeding tel and trace
// when they are non-nil.
func (sc *Scenario) start(ctx context.Context, cfg emu.Config, tel *telemetry.Collector, trace *obs.Timeline) (*emu.Result, error) {
	return emu.Run(cfg, append(sc.runOptions(ctx), emu.WithTelemetry(tel), emu.WithTrace(trace))...)
}
