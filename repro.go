// Package repro is the public facade of this reproduction of
// "Traffic-based Load Balance for Scalable Network Emulation"
// (Liu & Chien, SC 2003). It re-exports what the examples/ programs and the
// README's snippets compose: the paper's topologies and traffic, a Scenario
// that maps them with TOP, PLACE or PROFILE and emulates the result, the
// emulator-level entry point with its run options, and the observability,
// telemetry and fault-injection hooks. Everything else lives in internal/.
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
	"repro/internal/telemetry"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// Scenario is one emulation study: topology, engines, background and
// foreground traffic, faults and remapping. Scenario.Run maps it with one
// approach and emulates the result. See core.Scenario.
type Scenario = core.Scenario

// The paper's three mapping approaches.
const (
	// Top partitions on topology alone (§3.1).
	Top = mapping.Top
	// Place adds the predicted background and application traffic (§3.2).
	Place = mapping.Place
	// Profile partitions on a NetFlow profile of a pre-run (§3.3).
	Profile = mapping.Profile
)

// Approaches returns TOP, PLACE, PROFILE in the paper's order.
func Approaches() []mapping.Approach { return mapping.Approaches() }

// Topology generators (Table 1 and Table 2 configurations).
var (
	// Campus builds the 20-router / 40-host campus section.
	Campus = topogen.Campus
	// TeraGrid builds the 27-router / 150-host TeraGrid of Figure 3.
	TeraGrid = topogen.TeraGrid
	// Brite builds a BRITE-like Internet topology.
	Brite = topogen.Brite
	// ScaleFree builds a Barabási–Albert router topology in linear time,
	// the scaling companion to Brite for 10⁴–10⁵-router studies.
	ScaleFree = topogen.ScaleFree
)

// BriteConfig parameterizes the Brite generator.
type BriteConfig = topogen.BriteConfig

// ScaleFreeConfig parameterizes the ScaleFree generator.
type ScaleFreeConfig = topogen.ScaleFreeConfig

// Routing is the route-oracle interface (next hop, memory accounting) the
// emulator and the mapping approaches consume. See netgraph.Routing: one
// oracle computes shortest-path rows on first use and caches them under a
// 256 MB budget, so every paper topology keeps all its rows.
type Routing = netgraph.Routing

// Workload is a timestamped list of flows.
type Workload = traffic.Workload

// DefaultHTTP returns the paper's §4.1.4 background traffic table for a
// duration.
func DefaultHTTP(duration float64, seed int64) traffic.HTTPSpec {
	return traffic.DefaultHTTP(duration, seed)
}

// DefaultScaLapack returns the paper's ScaLapack configuration, the regular
// MPI foreground application.
func DefaultScaLapack() apps.ScaLapack { return apps.DefaultScaLapack() }

// DefaultGridNPB returns the paper's GridNPB configuration, the irregular
// workflow foreground application.
func DefaultGridNPB() apps.GridNPB { return apps.DefaultGridNPB() }

// SpreadHosts picks n application injection points spread evenly over the
// network's hosts.
func SpreadHosts(nw *netgraph.Network, n int) []int { return core.SpreadHosts(nw, n) }

// EmuConfig describes one emulation run at the emulator level.
type EmuConfig = emu.Config

// RunEmulation executes one emulation directly (most callers use Scenario).
func RunEmulation(cfg EmuConfig, opts ...emu.Option) (*emu.Result, error) {
	return emu.Run(cfg, opts...)
}

// Run options for RunEmulation.
var (
	// WithContext threads a cancellation context, observed at window
	// barriers.
	WithContext = emu.WithContext
	// WithRecorder attaches an observability recorder to the run.
	WithRecorder = emu.WithRecorder
	// WithStats attaches the RunStats summary to the result's Obs.
	WithStats = emu.WithStats
	// WithRouting supplies a pre-built route oracle for one run, taking
	// precedence over EmuConfig.Routes.
	WithRouting = emu.WithRouting
	// WithTrace threads a window-trace timeline through one run.
	WithTrace = emu.WithTrace
	// WithTelemetry threads a traffic-plane collector through one run.
	WithTelemetry = emu.WithTelemetry
)

// Observability (see internal/obs) and traffic-plane telemetry (see
// internal/telemetry).
var (
	// NewTrace returns a deterministic JSONL trace recorder writing to w.
	NewTrace = obs.NewTrace
	// MultiRecorder fans one event stream out to several recorders.
	MultiRecorder = obs.Multi
	// ServeDebug starts the pprof + expvar debug HTTP endpoint.
	ServeDebug = obs.ServeDebug
	// NewTelemetry returns an idle traffic-plane collector, reusable across
	// runs.
	NewTelemetry = telemetry.New
	// MountTelemetry returns the mount that adds /metrics (Prometheus text
	// exposition) and /trafficmatrix (JSON) to a ServeDebug endpoint:
	// ServeDebug(addr, MountTelemetry(col)).
	MountTelemetry = telemetry.Mount
)

// ParseFaults builds a fault schedule (Scenario.Faults) from command-line
// style specs: "crash:E@T", "slow:E@T1-T2xF", "degrade@T1-T2xF".
func ParseFaults(specs []string) (*faults.Schedule, error) { return faults.Parse(specs) }
