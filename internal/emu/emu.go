// Package emu is the distributed network emulator — the reproduction of
// MaSSF, the paper's large-scale network emulation system inside MicroGrid.
//
// A run takes a virtual network, an assignment of its nodes to
// simulation-engine nodes (the partition under study), and a traffic
// workload. Every flow becomes a train of packet groups forwarded hop by hop
// along the routed path; each hop charges one kernel event per packet to the
// engine owning that node ("the load of a simulation engine node [is] the
// simulation kernel event rate, essentially one per packet", §4.1.1). Links
// model serialization (bytes/bandwidth) with FIFO queueing and propagation
// latency; engine-to-engine hand-offs ride the conservative DES kernel whose
// lookahead is the minimum latency cut by the assignment.
//
// The run reports the paper's three metrics:
//
//   - load imbalance: normalized standard deviation of per-engine kernel
//     event counts,
//   - application emulation time: virtual-time-paced execution, where a
//     bucket takes max(its width, the busiest engine's processing cost) of
//     real time — compute-bound stretches run in real time, overloaded
//     buckets dilate (MicroGrid pacing),
//   - network emulation time: the same event stream replayed as fast as
//     possible (no real-time floor), the paper's isolated replay metric.
//
// When profiling is enabled the emulator additionally runs the NetFlow-like
// accounting of §3.3 on every node, feeding the PROFILE mapping.
//
// Every executed window is observed in one place, emulation.commit: the kernel
// (in-process) or DistMerge.CommitWindow (distributed) hands it the window's
// obs.Window record, and it feeds, in a fixed order, the time model behind
// the three metrics, the telemetry collector, the tracing timeline and the
// recorder chain, then observes cancellation and applies a scheduled crash or
// resize. The emulator, not the kernel, announces each window grid to the
// recorders (RunMeta): at the start and after every Restore.
package emu

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netflow"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// CostModel prices the work of one simulation-engine node, calibrated to the
// paper's cluster (dual 550 MHz Pentium-II nodes on switched 100 Mb/s
// Ethernet, §4.1.2).
type CostModel struct {
	// PerEvent is the CPU cost of one kernel event (one packet hop).
	PerEvent float64
	// PerRemote is the cost of shipping one simulation event to another
	// engine over the cluster network.
	PerRemote float64
	// PerWindow is the per-barrier synchronization cost.
	PerWindow float64
}

// PentiumIICluster is the default cost model: ~50 µs of packet processing
// (tens of kcycles of emulation logic — routing, queueing, TCP bookkeeping —
// per packet on a 550 MHz CPU), ~120 µs per cross-engine message (small TCP
// message on 100 Mb/s Ethernet), ~30 µs per window synchronization. The sync
// term is deliberately modest: MaSSF's conservative protocol exchanges
// per-neighbor null messages asynchronously rather than running a full
// cluster barrier, so its amortized per-window cost is far below a barrier's.
var PentiumIICluster = CostModel{
	PerEvent:  50e-6,
	PerRemote: 120e-6,
	PerWindow: 30e-6,
}

// counts is what a run keeps for its time model, whatever the CostModel: per
// bucket and engine, kernel events and remote sends, each scaled by its
// window's straggler, degradation and engine-speed factors; per bucket, the
// windows executed and the virtual time they cover. Buckets are BucketWidth
// wide (the paper's 2 s interval): an engine briefly behind in one lookahead
// window drains its backlog while its peers wait at most one barrier.
type counts struct {
	engines        int
	events, remote []float64 // [bucket*engines+engine]
	windows        []int     // per bucket
	width          []float64 // per bucket
}

// charge is the modeled seconds of x kernel events and y remote sends: the
// one place an engine's cost is spelled.
func (c CostModel) charge(x, y float64) float64 { return x*c.PerEvent + y*c.PerRemote }

// price turns counts into modeled times (DESIGN.md §3.2): a bucket replays in
// its busiest engine's charge plus PerWindow per window, and paced takes at
// least the virtual time it covers. NetTime sums the first, AppTime the second
// (skipped time and stalls are the caller's); EngineBusy sums each engine's
// charges. It reads only c and n, so one run can be priced under any model.
func (c CostModel) price(n *counts) (app, net float64, busy []float64) {
	busy = make([]float64, n.engines)
	for b, windows := range n.windows {
		peak := 0.0
		for lp := range busy {
			cost := c.charge(n.events[b*n.engines+lp], n.remote[b*n.engines+lp])
			busy[lp] += cost
			peak = max(peak, cost)
		}
		t := peak + float64(windows)*c.PerWindow
		net += t
		app += max(t, n.width[b])
	}
	return app, net, busy
}

func (c CostModel) withDefaults() CostModel {
	if c.PerEvent <= 0 {
		c.PerEvent = PentiumIICluster.PerEvent
	}
	if c.PerRemote <= 0 {
		c.PerRemote = PentiumIICluster.PerRemote
	}
	if c.PerWindow <= 0 {
		c.PerWindow = PentiumIICluster.PerWindow
	}
	return c
}

// Config describes one emulation run.
type Config struct {
	// Network is the virtual topology. Required.
	Network *netgraph.Network
	// Routes is the route oracle; when nil the run uses the network's
	// shared one (netgraph.Network.SharedRouting). WithRouting overrides it
	// per run.
	Routes netgraph.Routing
	// Assignment maps every node to a simulation engine in [0, NumEngines).
	// Required.
	Assignment []int
	// NumEngines is the number of simulation-engine nodes. Required.
	NumEngines int
	// Workload is the traffic to emulate. Required (may be empty).
	Workload traffic.Workload
	// ChunkBytes is the packet-group granularity: flows are forwarded in
	// chunks of at most this many bytes, each chunk one DES event per hop
	// while still charging per-packet load. Default 64 KiB.
	ChunkBytes int64
	// MTU is the packet size used to convert bytes to kernel events.
	// Default 1500.
	MTU int64
	// Cost prices engine work; zero fields default to PentiumIICluster.
	Cost CostModel
	// Profile enables NetFlow collection on every node.
	Profile bool
	// BucketWidth is the load-series granularity in virtual seconds
	// (default 2, the paper's fine-grained interval).
	BucketWidth float64
	// EndTime optionally truncates the emulation.
	EndTime float64
	// Transport selects how flows release their packet groups at the
	// source: Blast (default) or TCPSlowStart. See TransportMode.
	Transport TransportMode
	// EngineSpeeds optionally gives relative processing speeds per engine
	// (heterogeneous clusters): an engine with speed 2 handles a kernel
	// event in half the base PerEvent time. nil or wrong length means all
	// engines run at speed 1 (the paper's homogeneity assumption, §5).
	EngineSpeeds []float64
	// BufferBytes, when positive, bounds each link direction's FIFO queue:
	// a packet group arriving while the transmitter backlog exceeds the
	// buffer is tail-dropped, as a real router queue would. 0 (default)
	// models unbounded buffers.
	BufferBytes int64
	// MinLookahead floors the synchronization window (default 100 µs) so a
	// pathological partition cannot drive the window count to infinity.
	MinLookahead float64
	// Sequential is ignored: the kernel runs every window on the caller's
	// goroutine, and more cores mean more distributed workers. It stays only
	// for callers written against the retired in-process parallel kernel.
	Sequential bool

	// Faults optionally injects a deterministic fault schedule — engine
	// crashes, straggler slowdowns, cluster-link degradation (see
	// internal/faults). Stragglers and degradations scale the cost model;
	// crashes trigger OnMembership-driven remapping and a downtime charge.
	Faults *faults.Schedule
	// CheckpointEvery is the virtual-time interval between cadence barriers
	// when Faults contains crashes (default DefaultCheckpointEvery). A crash
	// is charged the emulation since the latest one, as the work a real
	// cluster would re-run from its checkpoint.
	CheckpointEvery float64
	// OnMembership is the one repartitioning policy: whenever the run's engine
	// set changes — an engine crashes, or an Elastic entry without an explicit
	// Assignment applies — it is handed the change and must return a full
	// node→engine assignment using only MembershipChange.Engines. Required when
	// Faults contains crashes or an Elastic entry omits its Assignment: the
	// emulator detects, charges and migrates, but the policy lives with the
	// caller (core supplies mapping.RemapOnto and the naive fallback).
	OnMembership MembershipPolicy
	// MigrationCost is the modeled recovery stall per virtual node that
	// changes engines (default DefaultMigrationCost, the dynamic-remap state
	// transfer model).
	MigrationCost float64

	// Elastic schedules engine-set membership changes: at each Resize.At the
	// run pauses at the next window barrier, repartitions the virtual nodes
	// onto the new engine set, and resumes — the in-process reference for the
	// distributed join/drain protocol. Entries must be sorted by At.
	Elastic []Resize
}

// Result reports a completed run.
type Result struct {
	// Kernel is the raw DES statistics (windows, events, wall time).
	Kernel *des.Stats
	// Lookahead is the window width used, i.e. the minimum latency of any
	// link cut by the assignment.
	Lookahead float64
	// EngineLoads is the kernel-event count per engine.
	EngineLoads []float64
	// Imbalance is the paper's metric: stddev(EngineLoads)/mean.
	Imbalance float64
	// AppTime is the modeled application emulation time in seconds (paced).
	AppTime float64
	// NetTime is the modeled isolated network emulation (replay) time.
	NetTime float64
	// EngineBusy is the total processing cost per engine in seconds.
	EngineBusy []float64
	// EngineSeries is the per-engine kernel-event load bucketed at
	// BucketWidth — the basis of the fine-grained imbalance of Figure 8.
	EngineSeries *metrics.Series
	// NetFlow is the profiling collector; nil unless Config.Profile.
	NetFlow *netflow.Collector
	// RemoteEvents is the total number of engine-to-engine event messages.
	RemoteEvents int64
	// FlowFCTs[i] is flow i's completion time (delivery of its last byte at
	// the destination, measured from the flow's start), or -1 if the flow
	// did not complete within the run. Indexed like Workload.Flows.
	FlowFCTs []float64
	// DroppedPackets counts packets tail-dropped at full link buffers
	// (always 0 with the default unbounded buffers).
	DroppedPackets int64
	// LinkBytes[l] is the total bytes carried by link l over the run (both
	// directions) — the utilization view a network operator would pull.
	LinkBytes []int64
	// FinalAssignment is the node→engine assignment at the end of the run.
	// It equals Config.Assignment unless a crash recovery remapped nodes.
	FinalAssignment []int
	// Recovery reports fault handling; nil when the fault schedule had no
	// crashes.
	Recovery *Recovery
	// Membership reports elastic engine-set changes; nil when Config.Elastic
	// was empty.
	Membership *Membership
	// Obs is the observability summary — per-engine event, charge,
	// remote-send and peak queue counters, and lifecycle counts. Its window
	// totals are Kernel's, copied. nil unless the run was given WithStats or
	// WithRecorder.
	Obs *obs.RunStats
	// Telemetry is the final traffic-plane snapshot — engine traffic
	// matrix, link totals, queue-delay/FCT histograms and the per-window
	// timeline. nil unless the run was given WithTelemetry.
	Telemetry *telemetry.Snapshot
}

// FCTStats summarizes the completed flows' completion times: count, mean,
// and 95th percentile. Incomplete flows are excluded.
func (r *Result) FCTStats() (completed int, mean, p95 float64) {
	var done []float64
	for _, f := range r.FlowFCTs {
		if f >= 0 {
			done = append(done, f)
		}
	}
	if len(done) == 0 {
		return 0, 0, 0
	}
	return len(done), metrics.Mean(done), metrics.Percentile(done, 95)
}

// The run's flow table is the workload itself plus what prepare resolves once
// and all engines share read-only: a slab of routes, one per distinct (src,
// dst) pair, and a route index per flow. A flow's identity, start and size
// are read from its Workload.Flows entry, aliased. Events name it by index.

// The four things an event can be. The first three are the wire's kinds too
// (WireFlowStart, WireTCPRound, WireChunk); the wire tells a tail chunk from a
// full one by its size.
const (
	kindFlowStart = uint8(iota) // inject the flow at its source host
	kindTCPRound                // release congestion window arg of the flow's slow start
	kindChunk                   // a ChunkBytes packet group arriving at path[arg]
	kindTailChunk               // the flow's final remainder arriving at path[arg]
)

// payload is what the kernel carries per event: 12 pointer-free bytes held by
// value in its queues, batches and checkpoints (the P of des.Kernel[P]). It
// names its flow by index and a chunk by shape, not size: size is derived
// (sizeOf), a TCP round's offset and window are derived (roundShape), and a
// wire event's claimed size or round is validated against the flow at decode —
// so every payload a run can hold is a (flow, kind, arg) the flow table admits.
type payload struct {
	flow int32 // index into Workload.Flows
	arg  int32 // hop of a chunk, round index of a TCP round
	kind uint8
}

// route is a path flows travel: Path its nodes, src to dst, and Links the
// links between them. Hop h is Path[h], entered over Links[h-1].
type route struct{ Path, Links []int }

// routeOf is the route flow travels.
func (e *emulation) routeOf(flow int32) *route { return &e.routes[e.routeIdx[flow]] }

// rttOf is twice the one-way latency of flow's route: TCP pacing's round trip.
func (e *emulation) rttOf(flow int32) float64 {
	var oneWay float64
	for _, lid := range e.routeOf(flow).Links {
		oneWay += e.nw.Links[lid].Latency
	}
	return 2 * oneWay
}

// sizeOf derives a chunk of flow's packet and byte counts from its kind. A
// flow's chunks all carry ChunkBytes except a final remainder (0 bytes when the
// size divides evenly), so it has at most two packet-group shapes; a shape the
// flow does not have is never scheduled (decodeWire refuses it).
func (e *emulation) sizeOf(flow int32, kind uint8) (packets, bytes int64) {
	if kind == kindTailChunk {
		bytes = e.flows[flow].Bytes % e.cfg.ChunkBytes
		return (bytes + e.cfg.MTU - 1) / e.cfg.MTU, bytes
	}
	return e.fullPackets, e.cfg.ChunkBytes
}

// Lookahead returns the synchronization window implied by an assignment: the
// minimum latency among links whose endpoints live on different engines.
// The floor never overrides a real cut-link latency (that would break
// causality); it only applies when no link is cut (single-engine runs),
// where any window width is safe.
func Lookahead(nw *netgraph.Network, assignment []int, minLookahead float64) float64 {
	if minLookahead <= 0 {
		minLookahead = 100e-6
	}
	min := math.Inf(1)
	max := 0.0
	for _, l := range nw.Links {
		if l.Latency > max {
			max = l.Latency
		}
		if assignment[l.A] != assignment[l.B] && l.Latency < min {
			min = l.Latency
		}
	}
	if math.IsInf(min, 1) {
		min = max
		if min < minLookahead {
			min = minLookahead
		}
	}
	if min <= 0 {
		min = 1e-9 // zero-latency cut link: degenerate but still correct
	}
	return min
}

// Run executes one emulation and returns its metrics. The base Config says
// what to emulate; Options say how to run it (observability recorders,
// cancellation, the route oracle) — see WithRecorder, WithStats, WithContext,
// WithRouting.
func Run(cfg Config, opts ...Option) (*Result, error) {
	var o runOptions
	o.apply(opts)
	e, err := prepare(&cfg, &o)
	if err != nil {
		return nil, err
	}

	desCfg := e.kernelConfig()
	desCfg.OnWindow = e.onWindow
	kernel, err := des.New(desCfg)
	if err != nil {
		return nil, err
	}
	if err := e.seed(kernel, nil); err != nil {
		return nil, err
	}

	stats, recovery, err := e.runResilient(kernel)
	if err != nil {
		return nil, err
	}
	return e.buildResult(stats, recovery), nil
}

// prepare validates cfg (applying defaults in place) and builds the flow table
// and the emulation state an engine set shares — the setup half of Run, reused
// verbatim by the distributed worker (DistLocal) and coordinator (DistMerge)
// so all three construct bit-identical state.
func prepare(cfg *Config, o *runOptions) (*emulation, error) {
	duration, err := validate(cfg)
	if err != nil {
		return nil, err
	}
	if o.ctx != nil {
		if err := o.ctx.Err(); err != nil {
			return nil, fmt.Errorf("emu: run canceled before start: %w", err)
		}
	}
	nw := cfg.Network
	rt := cfg.Routes
	if o.routes != nil {
		rt = o.routes
	}
	if rt == nil {
		// Callers running a pipeline should thread one Routing through
		// (core.Scenario.Routes() is the memoized source); the shared oracle
		// keeps even bare emu.Run loops from recomputing rows.
		rt = nw.SharedRouting()
	}

	// Resolve routes up front, once per distinct endpoint pair; they are static
	// for a run. The pair map is only ever looked up, never iterated, so the
	// table (and the first flow a missing route is blamed on) follows workload
	// order.
	fullPackets := (cfg.ChunkBytes + cfg.MTU - 1) / cfg.MTU
	flows := cfg.Workload.Flows
	pairs := make(map[[2]int]int32)
	var routes []route
	routeIdx := make([]int32, len(flows))
	for i, f := range flows {
		pair := [2]int{f.Src, f.Dst}
		r, ok := pairs[pair]
		if !ok {
			path, links := nw.RoutePath(rt, f.Src, f.Dst)
			if path == nil {
				return nil, fmt.Errorf("%w: flow %d has no route %d -> %d", ErrBadConfig, f.ID, f.Src, f.Dst)
			}
			r = int32(len(routes))
			routes = append(routes, route{Path: path, Links: links})
			pairs[pair] = r
		}
		routeIdx[i] = r
	}

	var collector *netflow.Collector
	if cfg.Profile {
		collector = netflow.NewCollector(nw.NumNodes(), len(nw.Links), duration, cfg.BucketWidth)
	}
	if o.tel != nil {
		o.tel.Reset(telemetry.Dims{Engines: cfg.NumEngines, Links: len(nw.Links), BucketWidth: cfg.BucketWidth})
	}

	buckets := int(duration/cfg.BucketWidth) + 1
	engineSeries := metrics.NewSeries(cfg.BucketWidth, cfg.NumEngines, buckets)

	lookahead := Lookahead(nw, cfg.Assignment, cfg.MinLookahead)
	cost := cfg.Cost.withDefaults()
	speeds := make([]float64, cfg.NumEngines) // absent, misfit or non-positive speeds are 1
	for lp := range speeds {
		speeds[lp] = 1
		if len(cfg.EngineSpeeds) == cfg.NumEngines && cfg.EngineSpeeds[lp] > 0 {
			speeds[lp] = cfg.EngineSpeeds[lp]
		}
	}

	e := &emulation{
		cfg:         cfg,
		ctx:         o.ctx,
		rec:         obs.Multi(o.recorders...),
		nw:          nw,
		flows:       flows,
		routes:      routes,
		routeIdx:    routeIdx,
		fullPackets: fullPackets,
		duration:    duration,
		lookahead:   lookahead,
		assignment:  append([]int(nil), cfg.Assignment...),
		NetState:    newNetState(len(nw.Links), len(flows)),
		collector:   collector,
		series:      engineSeries,
		tel:         o.tel,
		cost:        cost,
		speeds:      speeds,
		counts: counts{engines: cfg.NumEngines, events: make([]float64, cfg.NumEngines*buckets),
			remote: make([]float64, cfg.NumEngines*buckets), windows: make([]int, buckets), width: make([]float64, buckets)},
		winCost: make([]float64, cfg.NumEngines),
		trace:   o.trace,
	}
	if o.stats { // a run starts on the engines its assignment uses
		e.runStats = obs.NewRunStats(cfg.NumEngines)
		used := slices.Clone(cfg.Assignment)
		slices.Sort(used)
		e.runStats.NoteClusterSize(len(slices.Compact(used)))
	}
	return e, nil
}

// kernelConfig is the handler-and-width core of the kernel configuration;
// Run hooks commit onto it, while a distributed worker runs it bare (the
// coordinator owns the barrier and commits the merged window).
func (e *emulation) kernelConfig() des.Config[payload] {
	return des.Config[payload]{
		NumLPs:    e.cfg.NumEngines,
		Lookahead: e.lookahead,
		Handler:   e.handle,
		EndTime:   e.cfg.EndTime,
	}
}

// seed hands each engine its flow starts as one des stream, in
// traffic.StartOrder. The streams' keys depend only on the workload's flow
// order, so a worker seeding just its local engines (local != nil) gets
// exactly the keys the in-process run would.
func (e *emulation) seed(kernel *des.Kernel[payload], local []bool) error {
	starts := traffic.StartOrder(e.flows, e.cfg.NumEngines, func(i int) int {
		f := &e.flows[i]
		if lp := e.assignment[f.Src]; (e.cfg.EndTime <= 0 || f.Start < e.cfg.EndTime) && (local == nil || local[lp]) {
			return lp
		}
		return -1
	})
	for lp, mine := range starts {
		if err := kernel.Seed(lp, len(mine), func(j int) (float64, payload) {
			return e.flows[mine[j]].Start, payload{flow: mine[j], kind: kindFlowStart}
		}); err != nil {
			return err
		}
	}
	return nil
}

// buildResult prices the run's counts and assembles the Result — the reporting
// half of Run, shared with the distributed coordinator.
func (e *emulation) buildResult(stats *des.Stats, recovery *Recovery) *Result {
	e.tel.Finish(stats.VirtualEnd, e)

	appTime, netTime, busy := e.cost.price(&e.counts)
	// Idle virtual time still elapses in a real-time-paced emulation.
	appTime += stats.SkippedTime
	if recovery != nil {
		// Recovery stalls (re-emulation since the cadence barrier, migration
		// state transfer) dilate the paced execution.
		appTime += recovery.Downtime
	}
	if e.membership != nil {
		// Elastic resizes stall only for state transfer: the barrier is
		// already the resume point.
		appTime += e.membership.Stall
	}

	loads := metrics.Floats(stats.Charges)

	linkTotals := make([]int64, len(e.nw.Links))
	var dropped int64
	for l := range linkTotals {
		linkTotals[l] = e.LinkBytes[2*l] + e.LinkBytes[2*l+1]
		dropped += e.Drops[2*l] + e.Drops[2*l+1]
	}
	var telSnap *telemetry.Snapshot
	if e.tel != nil {
		telSnap = e.tel.Snapshot()
	}
	if s := e.runStats; s != nil {
		s.Windows = stats.Windows
		s.Events, s.Charges = slices.Clone(stats.Events), slices.Clone(stats.Charges)
		s.Remote = slices.Clone(stats.RemoteSends)
	}
	return &Result{
		Kernel:          stats,
		Lookahead:       e.lookahead,
		EngineLoads:     loads,
		Imbalance:       metrics.Imbalance(loads),
		AppTime:         appTime,
		NetTime:         netTime,
		EngineBusy:      busy,
		EngineSeries:    e.series,
		NetFlow:         e.collector,
		RemoteEvents:    metrics.Sum(stats.RemoteSends),
		FlowFCTs:        e.FCTs,
		LinkBytes:       linkTotals,
		DroppedPackets:  dropped,
		FinalAssignment: append([]int(nil), e.assignment...),
		Recovery:        recovery,
		Membership:      e.membership,
		Obs:             e.runStats,
		Telemetry:       telSnap,
	}
}

// validate checks cfg, applies its defaults in place and returns the virtual time the run's series cover.
func validate(cfg *Config) (duration float64, _ error) {
	if cfg.Network == nil {
		return 0, fmt.Errorf("%w: Network is required", ErrBadConfig)
	}
	if cfg.NumEngines < 1 {
		return 0, fmt.Errorf("%w: NumEngines = %d, must be >= 1", ErrBadConfig, cfg.NumEngines)
	}
	if len(cfg.Assignment) != cfg.Network.NumNodes() {
		return 0, fmt.Errorf("%w: assignment covers %d nodes, network has %d",
			ErrBadConfig, len(cfg.Assignment), cfg.Network.NumNodes())
	}
	for n, e := range cfg.Assignment {
		if e < 0 || e >= cfg.NumEngines {
			return 0, fmt.Errorf("%w: node %d assigned to engine %d, want [0,%d)",
				ErrBadConfig, n, e, cfg.NumEngines)
		}
	}
	if err := cfg.Workload.Validate(cfg.Network); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 64 << 10
	}
	if cfg.MTU <= 0 {
		cfg.MTU = 1500
	}
	if cfg.BucketWidth <= 0 {
		cfg.BucketWidth = 2
	}
	// NaN or infinite floats mis-size the series or drop out of its maxima; EndTime may be ±Inf, a speed -Inf.
	for i, v := range append([]float64{cfg.EndTime, cfg.Workload.Duration, cfg.BucketWidth, cfg.Cost.PerEvent, cfg.Cost.PerRemote, cfg.Cost.PerWindow}, cfg.EngineSpeeds...) {
		if math.IsNaN(v) || i > 0 && math.IsInf(v, 1) || i > 0 && i < 6 && math.IsInf(v, -1) {
			return 0, fmt.Errorf("%w: %g is no end time, duration, bucket width, cost or engine speed", ErrBadConfig, v)
		}
	}
	for _, v := range []float64{cfg.MigrationCost, cfg.CheckpointEvery} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("%w: %g is no migration cost or checkpoint interval", ErrBadConfig, v)
		}
	}
	duration = cfg.Workload.Duration
	if cfg.EndTime > 0 && cfg.EndTime < duration {
		duration = cfg.EndTime
	}
	if duration <= 0 {
		duration = 1
	}
	if duration/cfg.BucketWidth > netflow.MaxBuckets {
		return 0, fmt.Errorf("%w: %g s in %g s buckets is more than %d buckets", ErrBadConfig, duration, cfg.BucketWidth, netflow.MaxBuckets)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.NumEngines); err != nil {
			return 0, fmt.Errorf("%w: %w", ErrBadConfig, err)
		}
		if cfg.Faults.HasCrashes() {
			if cfg.OnMembership == nil {
				return 0, fmt.Errorf("%w: fault schedule contains crashes but no OnMembership policy is configured",
					ErrBadConfig)
			}
			if cfg.CheckpointEvery <= 0 {
				cfg.CheckpointEvery = DefaultCheckpointEvery
			}
		}
	}
	if cfg.MigrationCost <= 0 {
		cfg.MigrationCost = DefaultMigrationCost
	}
	if len(cfg.Elastic) > 0 {
		prevAt := 0.0
		needHook := false
		for i, r := range cfg.Elastic {
			if !(r.At > prevAt) || math.IsInf(r.At, 1) {
				return 0, fmt.Errorf("%w: elastic resize %d at t=%g must come after t=%g and be positive and finite",
					ErrBadConfig, i, r.At, prevAt)
			}
			prevAt = r.At
			if len(r.Engines) == 0 {
				return 0, fmt.Errorf("%w: elastic resize %d has an empty engine set", ErrBadConfig, i)
			}
			seen := make(map[int]bool, len(r.Engines))
			for _, eng := range r.Engines {
				if eng < 0 || eng >= cfg.NumEngines {
					return 0, fmt.Errorf("%w: elastic resize %d targets engine %d, want [0,%d)",
						ErrBadConfig, i, eng, cfg.NumEngines)
				}
				if seen[eng] {
					return 0, fmt.Errorf("%w: elastic resize %d lists engine %d twice", ErrBadConfig, i, eng)
				}
				seen[eng] = true
			}
			if r.Assignment == nil {
				needHook = true
				continue
			}
			if len(r.Assignment) != cfg.Network.NumNodes() {
				return 0, fmt.Errorf("%w: elastic resize %d assignment covers %d nodes, network has %d",
					ErrBadConfig, i, len(r.Assignment), cfg.Network.NumNodes())
			}
			for v, eng := range r.Assignment {
				if !seen[eng] {
					return 0, fmt.Errorf("%w: elastic resize %d assigns node %d to engine %d outside the new set",
						ErrBadConfig, i, v, eng)
				}
			}
		}
		if needHook && cfg.OnMembership == nil {
			return 0, fmt.Errorf("%w: elastic resizes without explicit assignments need an OnMembership policy",
				ErrBadConfig)
		}
		if cfg.CheckpointEvery <= 0 {
			cfg.CheckpointEvery = DefaultCheckpointEvery
		}
	}
	return duration, nil
}

// emulation is the handler state shared by all engines during a run. What the
// run mutates as it progresses is the network state, the collectors and the
// time model's accumulators; assignment only changes at a barrier, when a
// crash recovery or a resize remaps nodes.
type emulation struct {
	cfg      *Config
	ctx      context.Context
	rec      obs.Recorder
	runStats *obs.RunStats
	nw       *netgraph.Network
	// The flow table, duration and lookahead are fixed at prepare time and
	// shared read-only by every engine (and every worker process, which
	// rebuilds them identically from the shipped scenario).
	flows       []traffic.Flow // cfg.Workload.Flows, aliased
	routes      []route        // one per distinct (src, dst)
	routeIdx    []int32        // flow i travels routes[routeIdx[i]]
	fullPackets int64          // packets in a ChunkBytes group
	duration    float64
	lookahead   float64

	assignment []int
	NetState
	collector *netflow.Collector
	series    *metrics.Series
	tel       *telemetry.Collector

	// The time model's parameters, the run's counts it prices, and winCost,
	// its per-window scratch: the modeled cost of each engine's window, which
	// every sink reads through the window record's Cost.
	cost    CostModel
	speeds  []float64
	counts  counts
	winCost []float64

	// trace is the cluster tracing timeline; nil when tracing is off (commit
	// then takes a single nil check and allocates nothing).
	trace *obs.Timeline

	// barrier is the crash-recovery and resize step of commit, installed by
	// runResilient when the run has a crash schedule or elastic resizes.
	barrier func(ws, we float64) error
	// membership accumulates elastic resize bookkeeping; nil unless
	// Config.Elastic is set (or a distributed coordinator drives resizes).
	membership *Membership
}

// bucketOf is the series bucket holding virtual time t, clamped to the series.
func (e *emulation) bucketOf(t float64) int {
	return min(max(int(t/e.cfg.BucketWidth), 0), len(e.counts.windows)-1)
}

// commit is the one place an executed window is observed, in-process (the
// kernel's OnWindow hook, through onWindow) and distributed
// (DistMerge.CommitWindow hands it the record summed from the workers'
// reports). In order: the time model adds the window to its counts and prices
// it into w.Cost, the telemetry collector commits it — folding the link counters and
// merging the histograms at a measurement-window crossing (engines are
// quiesced at the barrier) — the tracing timeline commits and attributes the window, the run
// summary takes its queue peaks, the recorder chain receives the record,
// cancellation is observed — between windows, never mid-handler — and a
// scheduled crash or resize is applied, which may Checkpoint and Restore the
// kernel under its running loop. The returned attribution is the timeline's
// (no gating worker when tracing is off); an error stops the run.
//
// The record's slices are recycled window buffers: every sink consumes them
// before returning and none retains them.
func (e *emulation) commit(w *obs.Window) (obs.WindowStat, error) {
	w.Cost = e.count(w)
	e.tel.Commit(w.Start, w.End, w.Charges, e)
	st := obs.WindowStat{Worker: -1}
	if e.trace != nil {
		st = e.trace.CommitWindow(*w)
	}
	e.runStats.NoteQueue(w.Queue)
	if e.rec != nil {
		e.rec.RecordWindow(*w)
	}
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return st, fmt.Errorf("emu: run canceled at window [%g,%g): %w", w.Start, w.End, err)
		}
	}
	if e.barrier != nil {
		return st, e.barrier(w.Start, w.End)
	}
	return st, nil
}

// onWindow is commit as the kernel's hook: in-process each engine is its own
// worker and nothing reads the per-window attribution live.
func (e *emulation) onWindow(w *obs.Window) error {
	_, err := e.commit(w)
	return err
}

// count adds one executed window to the run's counts, scaled by the window's
// straggler and degradation factors and the engine speeds, and returns the
// modeled cost of each engine's share. Merged counters are identical
// in-process, over loopback and over TCP, so the counts are too.
func (e *emulation) count(w *obs.Window) []float64 {
	n, b := &e.counts, e.bucketOf(w.Start)
	loads, rf := e.series.Loads[b], e.cfg.Faults.RemoteFactorAt(w.Start)
	for lp := range e.winCost {
		x := float64(w.Charges[lp]) * e.cfg.Faults.SlowdownAt(lp, w.Start) / e.speeds[lp]
		y := float64(w.Remote[lp]) * rf / e.speeds[lp]
		n.events[b*n.engines+lp] += x
		n.remote[b*n.engines+lp] += y
		e.winCost[lp] = e.cost.charge(x, y)
		loads[lp] += float64(w.Charges[lp])
	}
	n.windows[b]++
	n.width[b] += w.End - w.Start
	return e.winCost
}

// handle processes one DES event on engine lp.
func (e *emulation) handle(lp int, t float64, p payload, s *des.Scheduler[payload]) {
	switch p.kind {
	case kindFlowStart:
		if e.cfg.Transport == TCPSlowStart {
			e.startFlowTCP(t, p.flow, s)
		} else {
			e.startFlowBlast(t, p.flow, s)
		}
	case kindTCPRound:
		e.releaseRound(t, p, s)
	case kindChunk, kindTailChunk:
		e.arrive(t, p, s)
	default:
		// An unknown kind is a protocol error (e.g. a malformed event shipped
		// by a remote peer), not a programming invariant worth dying for:
		// poison the run the same way des handles lookahead violations, so a
		// distributed worker survives and reports the error.
		s.Fail(fmt.Errorf("%w: unknown event kind %d", ErrBadConfig, p.kind))
	}
}

// startFlowBlast splits the flow into chunks and forwards each from the
// source immediately.
func (e *emulation) startFlowBlast(t float64, flow int32, s *des.Scheduler[payload]) {
	e.release(t, flow, e.flows[flow].Bytes, math.MaxInt, s)
}

// release forwards up to limit chunks of a flow's last remaining bytes from
// its source.
func (e *emulation) release(t float64, flow int32, remaining int64, limit int, s *des.Scheduler[payload]) {
	for i := 0; i < limit && remaining > 0; i++ {
		c := payload{flow: flow, kind: kindChunk}
		if remaining < e.cfg.ChunkBytes {
			c.kind = kindTailChunk
		}
		_, bytes := e.sizeOf(flow, c.kind)
		remaining -= bytes
		e.arrive(t, c, s)
	}
}

// slotOf is the NetState slot of link lid sent over from node from: a link's
// B end sends in direction 1.
func (e *emulation) slotOf(lid, from int) int {
	if e.nw.Links[lid].B == from {
		return 2*lid + 1
	}
	return 2 * lid
}

// arrive processes a chunk at node path[hop]: charge the kernel events,
// account what the node received (NetFlow, on entry), and forward over the
// next link if not at the destination, counting what the link carried or
// dropped and observing the queueing delay (telemetry, on exit).
func (e *emulation) arrive(t float64, c payload, s *des.Scheduler[payload]) {
	r := e.routeOf(c.flow)
	hop := int(c.arg)
	packets, bytes := e.sizeOf(c.flow, c.kind)
	node := r.Path[hop]
	s.Charge(packets)
	if e.collector != nil {
		in := -1 // at the source, the group came in over no link
		if hop > 0 {
			in = e.slotOf(r.Links[hop-1], r.Path[hop-1])
		}
		e.collector.Observe(node, in, packets, t)
	}
	if hop == len(r.Path)-1 {
		// Delivered: track the flow's completion at the destination.
		f := &e.flows[c.flow]
		e.Delivered[c.flow] += bytes
		if e.Delivered[c.flow] >= f.Bytes && e.FCTs[c.flow] < 0 {
			e.FCTs[c.flow] = t - f.Start
			if e.tel != nil {
				e.tel.ObserveFlowComplete(e.assignment[node], e.FCTs[c.flow])
			}
		}
		return
	}

	lid := r.Links[hop]
	link := &e.nw.Links[lid]
	slot := e.slotOf(lid, node)
	// FIFO transmitter: serialization after any queued chunks; with a
	// finite buffer, arrivals beyond the backlog limit are tail-dropped.
	depart := t
	if bu := e.BusyUntil[slot]; bu > depart {
		if e.cfg.BufferBytes > 0 {
			backlog := (bu - t) * link.Bandwidth / 8
			if backlog > float64(e.cfg.BufferBytes) {
				e.Drops[slot] += packets
				return
			}
		}
		depart = bu
	}
	if e.tel != nil {
		e.tel.ObserveQueueDelay(e.assignment[node], depart-t)
	}
	depart += float64(bytes*8) / link.Bandwidth
	e.BusyUntil[slot] = depart
	e.LinkBytes[slot] += bytes
	e.LinkPackets[slot] += packets
	c.arg++
	s.Schedule(e.assignment[r.Path[hop+1]], depart+link.Latency, c)
}
