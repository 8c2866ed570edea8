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
	"fmt"

	"repro/internal/apps"
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
	// EmulatedTraceroute makes PLACE discover its routes by running real
	// ICMP traceroutes inside the emulator (between sub-network
	// representatives, the paper's optimization) instead of walking the
	// routing table. Paths are identical under static routing; the switch
	// exercises the §3.2 mechanism end to end.
	EmulatedTraceroute bool
	// Routing selects the route-oracle backend and its parameters (see
	// netgraph.RoutingOptions). The zero value is the automatic policy:
	// flat tables up to netgraph.AutoFlatMaxNodes nodes, the lazy
	// sub-quadratic oracle beyond. Set explicitly to force flat, lazy, or
	// hierarchical/clustered routing — the Hier backend
	// is the two-level per-AS tables behind the paper's 10 + x² router
	// memory model.
	Routing netgraph.RoutingOptions
	// Transport selects the flow release model (Blast or TCPSlowStart).
	Transport emu.TransportMode
	// EngineSpeeds optionally models a heterogeneous cluster: relative
	// speeds per engine. Mapping approaches target load proportional to
	// speed; the emulator divides per-event cost by the engine's speed.
	EngineSpeeds []float64
	// Remap selects RunDynamic's between-interval repartitioning policy:
	// RemapProfile (from scratch; also what empty means), RemapIncremental,
	// RemapGame or RemapDiffusion.
	Remap RemapPolicy
	// Cost overrides the engine cost model (zero = PentiumIICluster).
	Cost emu.CostModel
	// EndTime optionally truncates the emulation.
	EndTime float64
	// Sequential forces single-threaded kernel execution.
	Sequential bool

	// Recorder, when non-nil, receives kernel observability from every
	// emulation the scenario runs (profiling pre-runs and dynamic-remap
	// segments included) — e.g. an obs.Trace writing JSONL.
	Recorder obs.Recorder
	// CollectStats attaches an aggregated obs.RunStats to each emulation
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
	// Trace, when non-nil, collects the run's window timeline (per-engine
	// compute spans, barrier-wait attribution) into an obs.Timeline — the
	// source for Chrome trace_event export and straggler attribution. It
	// applies to Run, RunDistributed and RunElastic main runs; PROFILE
	// pre-runs and dynamic-remap segments are excluded so the timeline
	// describes exactly one emulation.
	Trace *obs.Timeline
	// ClusterHealth, when non-nil, receives the coordinator's live
	// cluster-health signal during RunDistributed/RunElastic — worker count,
	// per-worker gated windows and critical-path share, the window-lag
	// histogram, heartbeat RTTs. Mount it with telemetry.MountCluster.
	// Attribution needs Trace set too; in-process runs leave it untouched.
	ClusterHealth *telemetry.ClusterHealth
	// Faults, when non-nil, is a straggler/degradation schedule applied to
	// Run, RunDistributed, RunElastic and their replays — the cost model
	// slows the scheduled engines, and the tracing/attribution plane (Trace,
	// ClusterHealth) reports who gates the windows. Straggler and
	// degradation schedules ship to distributed workers; crash schedules do
	// not (use RunResilient, which takes its own schedule and ignores this
	// field). RunDynamic segments rebase virtual time per interval and skip
	// it.
	Faults *faults.Schedule

	routes    netgraph.Routing
	routesErr error
	workload  *traffic.Workload
	appHosts  []int
}

// Outcome is the result of running one mapping approach on a scenario.
type Outcome struct {
	Approach mapping.Approach
	// Assignment is the mapping the run started on; Result.FinalAssignment is
	// the one it ended on (they differ after a crash recovery or a resize).
	Assignment []int
	Result     *emu.Result
	// ProfileRun is the initial profiling run's result (PROFILE only).
	ProfileRun *emu.Result
}

// Recovery returns the fault-handling summary: downtime, charged events,
// migrations and pre/post-failure imbalance (nil for crash-free runs).
func (o *Outcome) Recovery() *emu.Recovery { return o.Result.Recovery }

// Obs returns the main run's aggregated observability summary, or nil when
// the scenario collected none (see Scenario.CollectStats / Recorder).
func (o *Outcome) Obs() *obs.RunStats { return o.Result.Obs }

// Telemetry returns the main run's final traffic-plane snapshot, or nil when
// the scenario collected none (see Scenario.CollectTelemetry).
func (o *Outcome) Telemetry() *telemetry.Snapshot { return o.Result.Telemetry }

// Routes returns (building once) the scenario's route oracle per the Routing
// options — the automatic policy by default. It is the single
// memoized source every downstream consumer (mapping, emulation, route
// discovery) reuses; the oracle additionally lives in the network's own
// shared cache, so a scenario never builds the same backend twice.
// Infeasible options surface as an error wrapping netgraph.ErrRoutingConfig.
func (sc *Scenario) Routes() (netgraph.Routing, error) {
	if sc.routes == nil && sc.routesErr == nil {
		sc.routes, sc.routesErr = sc.Network.SharedRouting(sc.Routing)
	}
	return sc.routes, sc.routesErr
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

// Workload returns (generating once) the merged background + foreground
// traffic. All approaches are evaluated against this same workload, as the
// paper does.
func (sc *Scenario) Workload() (traffic.Workload, error) {
	if sc.workload != nil {
		return *sc.workload, nil
	}
	var parts []traffic.Workload
	if sc.Background != nil {
		parts = append(parts, sc.Background.Generate(sc.Network))
	}
	if sc.App != nil {
		hosts := sc.AppPlacement()
		if len(hosts) != sc.App.Hosts() {
			return traffic.Workload{}, fmt.Errorf(
				"core: app %s needs %d hosts, network offers %d",
				sc.App.Name(), sc.App.Hosts(), len(hosts))
		}
		app, err := sc.App.Generate(hosts, sc.AppSeed)
		if err != nil {
			return traffic.Workload{}, err
		}
		parts = append(parts, app)
	}
	w := traffic.Merge(parts...)
	if err := w.Validate(sc.Network); err != nil {
		return traffic.Workload{}, err
	}
	sc.workload = &w
	return w, nil
}

// MappingInput exposes the approach-independent mapping parameters, for
// callers driving mapping strategies (e.g. baselines) outside Run.
func (sc *Scenario) MappingInput() (mapping.Input, error) { return sc.mappingInput() }

// mappingInput assembles the approach-independent mapping parameters.
func (sc *Scenario) mappingInput() (mapping.Input, error) {
	routes, err := sc.Routes()
	if err != nil {
		return mapping.Input{}, err
	}
	return mapping.Input{
		Network:         sc.Network,
		Routes:          routes,
		K:               sc.Engines,
		PartOpts:        partition.Options{Seed: sc.PartSeed},
		LatencyPriority: sc.LatencyPriority,
		Cluster:         sc.Cluster,
		EngineFractions: sc.EngineSpeeds,
	}, nil
}

// Partition computes the assignment for one approach without emulating.
// For PROFILE this includes the profiling pre-run, which observes ctx.
func (sc *Scenario) Partition(ctx context.Context, a mapping.Approach) ([]int, *emu.Result, error) {
	in, err := sc.mappingInput()
	if err != nil {
		return nil, nil, err
	}
	switch a {
	case mapping.Top:
		part, err := mapping.TopMap(in)
		return part, nil, err
	case mapping.Place:
		if sc.Background != nil {
			in.Background = sc.Background.Predict(sc.Network)
		}
		in.AppHosts = sc.AppPlacement()
		if sc.EmulatedTraceroute {
			routes, err := sc.discoverRoutes(in.Background, in.AppHosts)
			if err != nil {
				return nil, nil, fmt.Errorf("core: PLACE route discovery: %w", err)
			}
			in.DiscoveredRoutes = routes
		}
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
		cfg.Profile = true // collects NetFlow, and stays off the scenario's timeline
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

// Run executes one approach end to end: partition (profiling first if
// PROFILE), then emulate the shared workload on the resulting assignment.
// Cancellation of ctx is observed at window barriers; pass
// context.Background() (or nil) to run to completion.
func (sc *Scenario) Run(ctx context.Context, a mapping.Approach) (*Outcome, error) {
	return sc.run(ctx, a, func(cfg emu.Config) (*emu.Result, error) {
		return sc.start(ctx, cfg, sc.newTelemetry(), sc.Trace)
	})
}

// run is the pipeline Run, RunDistributed and RunResilient share: partition
// with the approach (profiling first if PROFILE), build the emulator
// configuration for the shared workload on that assignment, hand it to exec —
// the only step the three differ in — and report the Outcome.
func (sc *Scenario) run(ctx context.Context, a mapping.Approach, exec func(emu.Config) (*emu.Result, error)) (*Outcome, error) {
	part, profRun, err := sc.Partition(ctx, a)
	if err != nil {
		return nil, err
	}
	cfg, err := sc.emuConfig(part)
	if err != nil {
		return nil, err
	}
	res, err := exec(cfg)
	if err != nil {
		return nil, err
	}
	return &Outcome{Approach: a, Assignment: part, Result: res, ProfileRun: profRun}, nil
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
	// memoization writes (routes, workload, app placement) are unsynchronized
	// by design — after this point every approach only reads them.
	if _, err := sc.Workload(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", sc.Name, err)
	}
	if _, err := sc.Routes(); err != nil {
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
		if err != nil {
			return fmt.Errorf("core: %s on %s: %w", as[i], sc.Name, err)
		}
		out[i] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// discoverRoutes runs the §3.2 emulated-traceroute discovery over every
// endpoint PLACE will predict traffic for, using an interim TOP partition to
// host the probes (route discovery precedes the final mapping, so some
// initial placement must carry it — as in the paper's workflow).
func (sc *Scenario) discoverRoutes(background []traffic.PairRate, appHosts []int) (map[[2]int][]int, error) {
	seen := make(map[int]bool)
	var endpoints []int
	add := func(n int) {
		if !seen[n] {
			seen[n] = true
			endpoints = append(endpoints, n)
		}
	}
	for _, p := range background {
		add(p.Src)
		add(p.Dst)
	}
	for _, h := range appHosts {
		add(h)
	}
	in, err := sc.mappingInput()
	if err != nil {
		return nil, err
	}
	interim, err := mapping.TopMap(in)
	if err != nil {
		return nil, err
	}
	routes, err := sc.Routes()
	if err != nil {
		return nil, err
	}
	return emu.DiscoverRoutes(sc.Network, routes, interim, sc.Engines, endpoints, true)
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
	routes, err := sc.Routes()
	if err != nil {
		return emu.Config{}, err
	}
	return emu.Config{
		Network:      sc.Network,
		Routes:       routes,
		Assignment:   assignment,
		NumEngines:   sc.Engines,
		Workload:     w,
		Cost:         sc.Cost,
		EndTime:      sc.EndTime,
		Transport:    sc.Transport,
		EngineSpeeds: sc.EngineSpeeds,
		Sequential:   sc.Sequential,
		Faults:       sc.Faults,
	}, nil
}

// start is the one way the scenario begins an in-process run: cfg under the
// scenario's observability and cancellation settings, feeding tel and trace
// when they are non-nil.
func (sc *Scenario) start(ctx context.Context, cfg emu.Config, tel *telemetry.Collector, trace *obs.Timeline) (*emu.Result, error) {
	return emu.Run(cfg, append(sc.runOptions(ctx), emu.WithTelemetry(tel), emu.WithTrace(trace))...)
}
