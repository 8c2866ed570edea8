// Package repro is the public facade of this reproduction of
// "Traffic-based Load Balance for Scalable Network Emulation"
// (Liu & Chien, SC 2003).
//
// The facade re-exports the pieces a downstream user composes:
//
//   - topologies (Campus, TeraGrid, BRITE-like generation — Table 1),
//   - traffic (the paper's HTTP background model, ScaLapack and GridNPB
//     foreground application models),
//   - the three network-mapping approaches (TOP, PLACE, PROFILE),
//   - the multilevel multi-constraint multi-objective graph partitioner,
//   - the distributed network emulator (conservative parallel DES with
//     packet-level forwarding, NetFlow profiling, and replay), and
//   - the experiment harness regenerating every table and figure of §4.
//
// Quick start:
//
//	sc := &repro.Scenario{
//		Network:      repro.Campus(),
//		Engines:      3,
//		Background:   repro.DefaultHTTP(60, 1),
//		CollectStats: true,
//	}
//	out, err := sc.Run(context.Background(), repro.Profile)
//	fmt.Println(out.Result.Imbalance, out.Result.Obs)
//
// Emulator-level runs compose options the same way:
//
//	res, err := repro.RunEmulation(cfg,
//		repro.WithContext(ctx),
//		repro.WithRecorder(repro.NewTrace(traceFile)),
//		repro.WithStats())
//
// See the examples/ directory for complete programs and DESIGN.md for the
// system inventory.
package repro

import (
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// Core pipeline types.
type (
	// Scenario is one emulation study: topology, engines, background and
	// foreground traffic. See core.Scenario.
	Scenario = core.Scenario
	// Outcome is the result of running one mapping approach on a Scenario.
	Outcome = core.Outcome
	// Approach names a mapping strategy (TOP, PLACE, PROFILE).
	Approach = mapping.Approach
)

// The paper's three mapping approaches.
const (
	Top     = mapping.Top
	Place   = mapping.Place
	Profile = mapping.Profile
)

// Approaches returns TOP, PLACE, PROFILE in the paper's order.
func Approaches() []Approach { return mapping.Approaches() }

// Network model.
type (
	// Network is a virtual topology of routers, hosts and links.
	Network = netgraph.Network
	// Link is one undirected network link.
	Link = netgraph.Link
	// Node is one virtual network entity.
	Node = netgraph.Node
)

// Topology generators (Table 1 and Table 2 configurations).
var (
	// Campus builds the 20-router / 40-host campus section.
	Campus = topogen.Campus
	// TeraGrid builds the 27-router / 150-host TeraGrid of Figure 3.
	TeraGrid = topogen.TeraGrid
	// Brite builds a BRITE-like Internet topology.
	Brite = topogen.Brite
)

// BriteConfig parameterizes the Brite generator.
type BriteConfig = topogen.BriteConfig

// TopologyByName builds one of the paper's topologies by Table 1 name.
func TopologyByName(name string, seed int64) (*Network, error) {
	return topogen.ByName(name, seed)
}

// ScaleFree builds a Barabási–Albert router topology in linear time — the
// scaling companion to Brite for 10⁴–10⁵-router studies.
var ScaleFree = topogen.ScaleFree

// ScaleFreeConfig parameterizes the ScaleFree generator.
type ScaleFreeConfig = topogen.ScaleFreeConfig

// Routing. The emulator, the mapping approaches and the route discovery all
// consume the Routing oracle interface; Scenario.Routing (or the WithRouting
// functional option at the emulator level) selects the backend. The zero
// RoutingOptions value is the automatic policy: exact flat tables up to
// RoutingAutoFlatMaxNodes nodes, the sub-quadratic lazy oracle beyond.
type (
	// Routing is the route-oracle interface (next hop, distance, memory
	// accounting). See netgraph.Routing.
	Routing = netgraph.Routing
	// RoutingOptions selects and parameterizes a routing backend.
	RoutingOptions = netgraph.RoutingOptions
	// RoutingStats is a point-in-time oracle accounting snapshot.
	RoutingStats = netgraph.RoutingStats
	// RoutingBackend enumerates the oracle implementations.
	RoutingBackend = netgraph.Backend
)

// Routing backends. (The mapping baseline named Hier below is unrelated —
// these constants select route oracles, not partitioning strategies.)
const (
	// RoutingAuto picks by topology size: flat up to RoutingAutoFlatMaxNodes
	// nodes, lazy beyond.
	RoutingAuto = netgraph.Auto
	// RoutingFlat is the dense all-pairs table: O(n²) memory, O(1) queries.
	RoutingFlat = netgraph.Flat
	// RoutingLazy computes per-source rows on demand behind a bounded LRU.
	RoutingLazy = netgraph.Lazy
	// RoutingHier is the two-level compressed table (per-AS or
	// auto-clustered).
	RoutingHier = netgraph.Hier

	// RoutingAutoFlatMaxNodes is the automatic policy's flat-table ceiling.
	RoutingAutoFlatMaxNodes = netgraph.AutoFlatMaxNodes
)

// ErrRoutingConfig reports an infeasible routing configuration (negative LRU
// size, cluster count below 2, unknown backend name); test with errors.Is.
var ErrRoutingConfig = netgraph.ErrRoutingConfig

// ParseRoutingBackend parses "auto" | "flat" | "lazy" | "hier" — the
// cmd/massf -routing flag values.
func ParseRoutingBackend(s string) (RoutingBackend, error) { return netgraph.ParseBackend(s) }

// Traffic.
type (
	// HTTPSpec is the paper's §4.1.4 background traffic description.
	HTTPSpec = traffic.HTTPSpec
	// Workload is a timestamped list of flows.
	Workload = traffic.Workload
	// Flow is one end-to-end transfer.
	Flow = traffic.Flow
	// ScaLapack models the regular MPI foreground application.
	ScaLapack = apps.ScaLapack
	// GridNPB models the irregular workflow foreground application.
	GridNPB = apps.GridNPB
)

// DefaultHTTP returns the paper's background traffic table for a duration.
func DefaultHTTP(duration float64, seed int64) HTTPSpec {
	return traffic.DefaultHTTP(duration, seed)
}

// DefaultScaLapack returns the paper's ScaLapack configuration.
func DefaultScaLapack() ScaLapack { return apps.DefaultScaLapack() }

// DefaultGridNPB returns the paper's GridNPB configuration.
func DefaultGridNPB() GridNPB { return apps.DefaultGridNPB() }

// Partitioner.
type (
	// Graph is the partitioner's weighted graph.
	Graph = partition.Graph
	// PartitionOptions tunes the multilevel partitioner.
	PartitionOptions = partition.Options
)

// NewGraph returns an empty partition graph with n vertices and ncon
// balance constraints.
func NewGraph(n, ncon int) *Graph { return partition.NewGraph(n, ncon) }

// Partition splits g into k balanced parts minimizing edge cut.
func Partition(g *Graph, k int, opts PartitionOptions) ([]int, error) {
	return partition.Partition(g, k, opts)
}

// Emulator.
type (
	// EmuConfig describes one emulation run at the emulator level.
	EmuConfig = emu.Config
	// EmuResult reports an emulation's metrics.
	EmuResult = emu.Result
	// EmuOption configures a run beyond the base EmuConfig (observability,
	// cancellation, route oracle). See WithRecorder, WithStats, WithContext,
	// WithRouting.
	EmuOption = emu.Option
)

// Run options for RunEmulation (and, through Scenario fields, every run a
// scenario starts).
var (
	// WithRecorder attaches an observability recorder to the run.
	WithRecorder = emu.WithRecorder
	// WithStats collects an aggregated RunStats into EmuResult.Obs.
	WithStats = emu.WithStats
	// WithContext threads a cancellation context, observed at window
	// barriers.
	WithContext = emu.WithContext
	// WithRouting supplies a pre-built route oracle for one run, taking
	// precedence over EmuConfig.Routes.
	WithRouting = emu.WithRouting
)

// RunEmulation executes one emulation directly (most callers use Scenario).
func RunEmulation(cfg EmuConfig, opts ...EmuOption) (*EmuResult, error) {
	return emu.Run(cfg, opts...)
}

// Typed sentinel errors, for errors.Is branching on failure class rather
// than message text.
var (
	// ErrBadConfig wraps every emulator configuration-validation failure.
	ErrBadConfig = emu.ErrBadConfig
	// ErrBadInput wraps malformed mapping inputs.
	ErrBadInput = mapping.ErrBadInput
	// ErrInfeasible wraps well-formed mapping problems with no admissible
	// solution.
	ErrInfeasible = mapping.ErrInfeasible
)

// Kernel observability (see internal/obs): recorders receive per-window
// per-engine counters and recovery lifecycle events from every emulation
// they are attached to.
type (
	// Recorder is the observability sink interface.
	Recorder = obs.Recorder
	// RunStats is the aggregated, mutex-guarded counter summary.
	RunStats = obs.RunStats
	// Trace is the deterministic JSONL trace writer.
	Trace = obs.Trace
	// ObsWindow is one window's counter snapshot as recorders see it.
	ObsWindow = obs.Window
	// ObsEvent is one recovery lifecycle event (checkpoint, crash,
	// charge, migration).
	ObsEvent = obs.Event
	// Timeline merges per-window spans into the run's virtual-time trace —
	// the source for Chrome trace_event export and straggler attribution
	// (Scenario.Trace, WithTrace, dist.RunSpec.Trace).
	Timeline = obs.Timeline
	// Span is one traced interval: a per-engine compute window, a derived
	// barrier wait, or a worker-side wall-clock segment (wire, checkpoint,
	// migrate).
	Span = obs.Span
	// WorkerHealth is one worker's straggler attribution row.
	WorkerHealth = obs.WorkerHealth
)

// Observability constructors and helpers.
var (
	// NewTrace returns a JSONL trace recorder writing to w.
	NewTrace = obs.NewTrace
	// NewTraceCloser is NewTrace for sinks the trace should close.
	NewTraceCloser = obs.NewTraceCloser
	// NewRunStats returns an empty aggregating collector.
	NewRunStats = obs.NewRunStats
	// MultiRecorder fans one event stream out to several recorders.
	MultiRecorder = obs.Multi
	// PublishStats exposes a collector's live snapshot via expvar
	// (/debug/vars on the ServeDebug endpoint).
	PublishStats = obs.Publish
	// ServeDebug starts the pprof + expvar debug HTTP endpoint.
	ServeDebug = obs.ServeDebug
	// NewTimeline returns an empty window-trace timeline.
	NewTimeline = obs.NewTimeline
	// WithTrace threads a timeline through one emulation run.
	WithTrace = emu.WithTrace
)

// Traffic-plane telemetry (see internal/telemetry): a collector threaded
// through an emulation measures the live src-engine × dst-engine traffic
// matrix, per-link utilization, queue-delay and flow-completion histograms,
// and a per-window imbalance/cross-traffic timeline — published
// deterministically at sync-window barriers, with a zero-cost disabled path.
type (
	// TelemetryCollector is the traffic-plane collector (Scenario.
	// TelemetryCollector, or WithTelemetry at the emulator level).
	TelemetryCollector = telemetry.Collector
	// TelemetrySnapshot is a published, immutable view of one run's traffic
	// plane (EmuResult.Telemetry, Outcome.Result.Telemetry).
	TelemetrySnapshot = telemetry.Snapshot
	// TrafficPoint is one measurement window of the imbalance /
	// cross-engine-traffic timeline.
	TrafficPoint = telemetry.TrafficPoint
	// ClusterHealth is the coordinator's live cluster-health registry:
	// worker count, gated-window counters, critical-path shares, window-lag
	// histogram and heartbeat RTT gauges (Scenario.ClusterHealth).
	ClusterHealth = telemetry.ClusterHealth
)

// Telemetry constructors and helpers.
var (
	// NewTelemetry returns an idle collector, reusable across runs.
	NewTelemetry = telemetry.New
	// WithTelemetry threads a collector through one emulation run.
	WithTelemetry = emu.WithTelemetry
	// MountTelemetry returns the mount that adds /metrics (Prometheus text
	// exposition) and /trafficmatrix (JSON) to a ServeDebug endpoint:
	// ServeDebug(addr, MountTelemetry(col)).
	MountTelemetry = telemetry.Mount
	// WriteTrafficMatrixJSON renders a snapshot as the /trafficmatrix JSON
	// document.
	WriteTrafficMatrixJSON = telemetry.WriteMatrixJSON
	// NewClusterHealth returns an empty cluster-health registry.
	NewClusterHealth = telemetry.NewClusterHealth
	// MountClusterTelemetry is MountTelemetry plus the cluster-health plane:
	// /metrics gains the per-worker families and /healthz serves the JSON
	// summary. Either argument may be nil.
	MountClusterTelemetry = telemetry.MountCluster
)

// SpreadHosts picks n application injection points spread evenly over the
// network's hosts.
func SpreadHosts(nw *Network, n int) []int { return core.SpreadHosts(nw, n) }

// ---- Extensions beyond the headline pipeline ----

// Additional traffic generators (see traffic.CBRSpec, traffic.OnOffSpec).
type (
	// CBRSpec is a constant-bit-rate background condition.
	CBRSpec = traffic.CBRSpec
	// OnOffSpec is an exponential on/off bursty background condition.
	OnOffSpec = traffic.OnOffSpec
)

// DefaultCBR returns a moderate constant-bit-rate background condition.
func DefaultCBR(duration float64, seed int64) CBRSpec { return traffic.DefaultCBR(duration, seed) }

// DefaultOnOff returns a bursty on/off background condition.
func DefaultOnOff(duration float64, seed int64) OnOffSpec {
	return traffic.DefaultOnOff(duration, seed)
}

// Flow transport models for the emulator (Scenario.Transport).
const (
	// Blast releases all of a flow's packet groups at its start time.
	Blast = emu.Blast
	// TCPSlowStart paces packet groups with TCP-like window growth.
	TCPSlowStart = emu.TCPSlowStart
)

// Dynamic remapping (Scenario.RemapEvery, the paper's §6 future work).
type (
	// DynamicSegment is one interval of a remapped run (Outcome.Segments).
	DynamicSegment = core.DynamicSegment
	// RemapPolicy selects how each interval's NetFlow profile becomes the next
	// assignment (Scenario.Remap).
	RemapPolicy = core.RemapPolicy
	// RemapStats reports the remapping step that produced a segment's
	// assignment, including the game policy's convergence profile.
	RemapStats = core.RemapStats
)

// The dynamic remap policies.
const (
	// RemapProfile re-runs PROFILE from scratch each interval.
	RemapProfile = core.RemapProfile
	// RemapIncremental refines the previous assignment with ProfileImprove.
	RemapIncremental = core.RemapIncremental
	// RemapGame runs game-theoretic best-response dynamics to a Nash fixed
	// point (DESIGN.md §16).
	RemapGame = core.RemapGame
	// RemapDiffusion is the traffic-blind greedy-halving baseline.
	RemapDiffusion = core.RemapDiffusion
)

// RemapPolicies returns every policy in the experiment table's order.
func RemapPolicies() []RemapPolicy { return core.RemapPolicies() }

// ParseRemapPolicy parses "profile" | "incremental" | "game" | "diffusion" —
// the cmd/massf -remap-policy flag values.
func ParseRemapPolicy(s string) (RemapPolicy, error) { return core.ParseRemapPolicy(s) }

// Game-theoretic iterative repartitioning (the RemapGame policy's engine).
type (
	// GameOptions tunes the best-response dynamics: payoff weights,
	// migration cost, round cap, tie-break seed.
	GameOptions = partition.GameOptions
	// GameStats reports a game run's convergence: rounds, moves evaluated
	// and taken, and the per-round potential trajectory.
	GameStats = partition.GameStats
)

// GameImprove runs selfish best-response dynamics on an existing assignment,
// returning the number of vertices that changed parts and the convergence
// stats. The game is an exact potential game, so the recorded payoff
// trajectory is non-increasing and the dynamics terminate.
func GameImprove(g *Graph, part []int, k int, opts GameOptions) (int, *GameStats, error) {
	return partition.GameImprove(g, part, k, opts)
}

// Baseline (traffic-blind) mapping strategies from the paper's §5 discussion.
const (
	// KCluster is the randomized greedy k-cluster baseline.
	KCluster = mapping.KCluster
	// Hier is the simple hierarchical (BFS-slice) baseline.
	Hier = mapping.Hier
)

// ImprovePartition refines an existing assignment in place under the graph's
// current weights, returning the number of vertices moved — the primitive
// behind low-migration incremental remapping.
func ImprovePartition(g *Graph, part []int, k int, opts PartitionOptions) (int, error) {
	return partition.Improve(g, part, k, opts)
}

// Fault injection and checkpoint/recovery (Scenario.Faults).
type (
	// FaultSchedule is a deterministic schedule of engine crashes,
	// stragglers, and cluster-interconnect degradations.
	FaultSchedule = faults.Schedule
	// Recovery reports crash-recovery metrics: downtime, replayed events,
	// migrations, and pre/post-recovery imbalance (Outcome.Result.Recovery).
	Recovery = emu.Recovery
	// MembershipChange is what EmuConfig.OnMembership — the one
	// repartitioning policy behind crashes and elastic resizes — is handed.
	MembershipChange = emu.MembershipChange
)

// ParseFaults builds a fault schedule from command-line style specs:
// "crash:E@T", "slow:E@T1-T2xF", "degrade@T1-T2xF".
func ParseFaults(specs []string) (*FaultSchedule, error) { return faults.Parse(specs) }

// Checkpoint and migration-cost defaults shared by the recovery and
// dynamic-remapping paths.
const (
	// DefaultCheckpointEvery is the barrier-checkpoint interval in virtual
	// seconds used when Scenario.CheckpointEvery is zero.
	DefaultCheckpointEvery = emu.DefaultCheckpointEvery
	// DefaultMigrationCost is the virtual-time price of moving one node
	// between engines.
	DefaultMigrationCost = emu.DefaultMigrationCost
)

// Partitioning strategies (PartitionOptions.Strategy).
const (
	// KWay is direct multilevel k-way partitioning (default).
	KWay = partition.KWay
	// RecursiveBisection recursively bisects, METIS pmetis style.
	RecursiveBisection = partition.RecursiveBisection
)
