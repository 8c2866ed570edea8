package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/topogen"
)

// topologySeed and partitionSeed are parameters of the system under test,
// not inputs: the one random topology (Brite) is a single fixed instance, as
// in the paper's evaluation, and the partitioner always draws from the same
// stream. -seed draws the traffic — the HTTP background and the ScaLapack
// foreground. With a fresh topology or partitioner stream per seed the
// mapping time moves by ±10 %, the TOP assignment (and with it the window
// count of every replay) changes, and the modeled times move by ~10 %: input
// variance that would bury what a later change does.
const (
	topologySeed  = 42
	partitionSeed = 45
)

// distWorkers is the worker count of the distributed workload: one
// connection per core of the two-core reference machine.
const distWorkers = 2

// sizes are the workload dimensions. The full sizes are constants of the
// benchmark, identical on every commit; tests run the same code at a tiny
// size.
type sizes struct {
	mapTopo                    string
	mapDur, replayDur, distDur float64 // virtual seconds
	// quick collapses every repetition count to one and drops warm-ups.
	quick bool
}

var fullSizes = sizes{mapTopo: "Brite", mapDur: 120, replayDur: 600, distDur: 30}

func (s sizes) n(full int) int {
	if s.quick {
		return 1
	}
	return full
}

type env struct {
	seed    int64
	seconds float64 // measurement time of the timed loop
	traced  bool
	sz      sizes
}

// workload is one benchmark workload: a closed loop of one client issuing
// ops back to back. warmups and ops are the fixed counts (ops is the minimum
// number of timed ops; the loop keeps going until env.seconds have passed).
type workload struct {
	name, why    string
	warmups, ops int
	// opIsEmuRun marks ops that are one in-process emu.Run, whose traced
	// samples therefore describe the des and emu layers directly.
	opIsEmuRun bool
	setup      func(e *env, tr *tracer, id int) (*state, error)
	// layers runs the traced pass's extra probes and fills per-layer
	// metrics that the op spans alone do not give.
	layers func(e *env, st *state, r *run) error
}

// state is what setup hands to the timed loop.
type state struct {
	in *inputs
	// op performs one operation. With a non-nil tracer it wraps its calls
	// in spans (and, for dist, its connections in recorders).
	op func(tr *tracer, id int) (*emu.Result, error)
	// refSHA is the SHA-256 every op's canonical result must match. Empty
	// means the first op defines it (ops must then agree with each other).
	refSHA string
	// extra is an additional per-op output check.
	extra func(res *emu.Result) error
	// ref is the sequential reference result of the same config, when the
	// workload has one.
	ref *emu.Result

	coord, workers []*connStats // dist: one per traced op
	handshakes     []float64
}

// inputs is a built scenario: topology, routes, workload and the TOP
// assignment, plus the plain sequential emulation config over them.
type inputs struct {
	sc    *core.Scenario
	mapIn mapping.Input
	top   []int
	cfg   emu.Config
}

// newScenario builds the experiments-harness scenario for topo (ScaLapack
// over HTTP background, traffic and partitioner seeded from seed) on the
// fixed topology instance, all collectors off.
func newScenario(tr *tracer, id int, topo string, dur float64, seed int64) (*core.Scenario, error) {
	s := tr.begin("bench.scenario", id)
	sc, err := experiments.ScenarioFor(experiments.Config{Duration: dur, Seed: seed, Sequential: true}, topo, "ScaLapack")
	tr.end(s)
	if err != nil {
		return nil, err
	}
	sc.CollectStats, sc.CollectTelemetry = false, false
	sc.PartSeed = partitionSeed
	s = tr.begin("topogen.build", id)
	sc.Network, err = topogen.ByName(topo, topologySeed)
	tr.end(s)
	return sc, err
}

// buildInputs runs the pipeline up to the TOP assignment, one span per layer.
func buildInputs(tr *tracer, id int, topo string, dur float64, seed int64) (*inputs, error) {
	sc, err := newScenario(tr, id, topo, dur, seed)
	if err != nil {
		return nil, err
	}
	s := tr.begin("netgraph.routing_build", id)
	routes, err := sc.Routes()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("traffic.workload_gen", id)
	w, err := sc.Workload()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	mapIn, err := sc.MappingInput()
	if err != nil {
		return nil, err
	}
	s = tr.begin("mapping.top", id)
	top, err := mapping.TopMap(mapIn)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	return &inputs{sc: sc, mapIn: mapIn, top: top, cfg: emu.Config{
		Network: sc.Network, Routes: routes, Assignment: top,
		NumEngines: sc.Engines, Workload: w, Sequential: true,
	}}, nil
}

// resultSHA is the SHA-256 of the canonical (wall-clock-free) result.
func resultSHA(res *emu.Result) (string, error) {
	b, err := dist.ResultJSON(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func sumInts(xs []int64) (t int64) {
	for _, x := range xs {
		t += x
	}
	return t
}

// ---- map_brite_profile ----

func mapWorkload() *workload {
	return &workload{
		name: "map_brite_profile",
		why:  "the user-facing map-then-emulate call: mapping+partition do ~95 % of the work, emu/des ~4 %",
		ops:  3,
		setup: func(e *env, tr *tracer, id int) (*state, error) {
			// Set-up builds the inputs and the TOP assignment once: it is
			// the same scenario-building work the other workloads do in
			// set-up, and it warms every layer the op goes through.
			in, err := buildInputs(tr, id, e.sz.mapTopo, e.sz.mapDur, e.seed)
			if err != nil {
				return nil, err
			}
			st := &state{in: in}
			st.op = func(tr *tracer, id int) (*emu.Result, error) {
				s := tr.begin("core.run_profile", id)
				defer tr.end(s)
				sc, err := newScenario(nil, id, e.sz.mapTopo, e.sz.mapDur, e.seed)
				if err != nil {
					return nil, err
				}
				o, err := sc.Run(context.Background(), mapping.Profile)
				if err != nil {
					return nil, err
				}
				return o.Result, nil
			}
			st.extra = func(res *emu.Result) error {
				return validAssignment(res.FinalAssignment, in.sc.Network.NumNodes(), in.sc.Engines)
			}
			return st, nil
		},
		layers: mapLayers,
	}
}

// validAssignment checks a node→engine map is total, in range and leaves no
// engine empty.
func validAssignment(part []int, nodes, k int) error {
	if len(part) != nodes {
		return fmt.Errorf("assignment covers %d of %d nodes", len(part), nodes)
	}
	used := make([]bool, k)
	for v, p := range part {
		if p < 0 || p >= k {
			return fmt.Errorf("node %d assigned to engine %d, outside [0,%d)", v, p, k)
		}
		used[p] = true
	}
	for p, ok := range used {
		if !ok {
			return fmt.Errorf("engine %d is empty", p)
		}
	}
	return nil
}

// mapLayers re-runs the op stage by stage (the stages Scenario.Run(PROFILE)
// goes through, called directly so each gets a span), checks the staged
// result is the op's result, and times the two off-path partitioner uses.
func mapLayers(e *env, st *state, r *run) error {
	tr := r.tr
	var shares []float64 // (TOP + PROFILE mapping) ÷ the whole staged re-run
	for i := 0; i < e.sz.n(2); i++ {
		id := r.nextID()
		root := tr.begin("bench.staged_profile", id)
		in, err := buildInputs(tr, id, e.sz.mapTopo, e.sz.mapDur, e.seed)
		if err != nil {
			return err
		}
		cfg := in.cfg
		cfg.Profile = true
		s := tr.begin("emu.profile_prerun", id)
		prof, err := emu.Run(cfg)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("netflow.summarize", id)
		in.mapIn.Summary = prof.NetFlow.Summarize()
		tr.end(s)
		s = tr.begin("mapping.profile", id)
		part, err := mapping.ProfileMap(in.mapIn)
		tr.end(s)
		if err != nil {
			return err
		}
		cfg = in.cfg
		cfg.Assignment = part
		s = tr.begin("emu.final_run", id)
		t0 := time.Now()
		res, err := emu.Run(cfg)
		finalS := time.Since(t0).Seconds()
		tr.end(s)
		tr.end(root)
		if err != nil {
			return err
		}
		r.check(st, res, "staged re-run")
		r.kernel(res, finalS)
		shares = append(shares, (tr.of("mapping.top", id)+tr.of("mapping.profile", id))/tr.of("bench.staged_profile", id))
	}

	// What Scenario.Run adds to its stages: the ops of the loop (traced or
	// not, the call is the same) against the re-runs that followed them.
	staged := median(tr.durations("bench.staged_profile"))
	op := median(append(r.seconds(true), r.seconds(false)...))
	r.set("emu.profile_prerun_s", median(tr.durations("emu.profile_prerun")))
	r.set("netflow.summarize_s", median(tr.durations("netflow.summarize")))
	r.set("mapping.profile_s", median(tr.durations("mapping.profile")))
	r.set("emu.final_run_s", median(tr.durations("emu.final_run")))
	r.set("core.self_s", op-staged)
	r.set("mapping.share", median(shares))

	// The third approach, off the op's path.
	in := st.in
	placeIn := in.mapIn
	if in.sc.Background != nil {
		placeIn.Background = in.sc.Background.Predict(in.sc.Network)
	}
	placeIn.AppHosts = in.sc.AppPlacement()
	s := tr.begin("mapping.place", r.nextID())
	part, err := mapping.PlaceMap(placeIn)
	tr.end(s)
	if err != nil {
		return err
	}
	if err := validAssignment(part, in.sc.Network.NumNodes(), in.sc.Engines); err != nil {
		return fmt.Errorf("PLACE: %w", err)
	}
	r.set("mapping.place_s", median(tr.durations("mapping.place")))

	// The partitioner alone, on the topology as a unit-weight graph.
	g := partition.NewGraph(in.sc.Network.NumNodes(), 1)
	for _, l := range in.sc.Network.Links {
		g.AddEdge(l.A, l.B, 1)
	}
	s = tr.begin("partition.kway", r.nextID())
	kpart, err := partition.Partition(g, in.sc.Engines, partition.Options{Seed: in.sc.PartSeed})
	tr.end(s)
	if err != nil {
		return err
	}
	if err := partition.Verify(g, kpart, in.sc.Engines); err != nil {
		return err
	}
	r.set("partition.kway_s", median(tr.durations("partition.kway")))
	r.set("partition.kway_edge_cut", float64(partition.EdgeCut(g, kpart)))
	r.set("partition.kway_max_balance", partition.Balance(g, kpart, in.sc.Engines)[0])
	return nil
}

// ---- replay_teragrid_* ----

// setupReplay builds the inputs and the sequential reference result every
// replay and dist op is compared with.
func setupReplay(tr *tracer, id int, topo string, dur float64, seed int64) (*state, error) {
	in, err := buildInputs(tr, id, topo, dur, seed)
	if err != nil {
		return nil, err
	}
	s := tr.begin("emu.reference", id)
	ref, err := emu.Run(in.cfg)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	sha, err := resultSHA(ref)
	if err != nil {
		return nil, err
	}
	return &state{in: in, ref: ref, refSHA: sha}, nil
}

// emuOp is an op that replays cfg through emu.Run with fresh options.
func emuOp(cfg emu.Config, opts func() []emu.Option) func(*tracer, int) (*emu.Result, error) {
	return func(tr *tracer, id int) (*emu.Result, error) {
		s := tr.begin("emu.run", id)
		defer tr.end(s)
		var o []emu.Option
		if opts != nil {
			o = opts()
		}
		return emu.Run(cfg, o...)
	}
}

func replaySeqWorkload() *workload {
	return &workload{
		name:    "replay_teragrid_seq",
		why:     "isolated replay on one thread: des+emu handlers do ~95 % of the work, mapping only in set-up; the baseline for the other replays",
		warmups: 2, ops: 10, opIsEmuRun: true,
		setup: func(e *env, tr *tracer, id int) (*state, error) {
			st, err := setupReplay(tr, id, "TeraGrid", e.sz.replayDur, e.seed)
			if err != nil {
				return nil, err
			}
			st.op = emuOp(st.in.cfg, nil)
			return st, nil
		},
		layers: seqLayers,
	}
}

// gapRecorder is the bench-side obs.Recorder: it timestamps every window
// callback, so the gaps are the wall time of one window (handlers, barrier
// merge and the recorder chain).
type gapRecorder struct {
	last time.Time
	gaps []float64
}

func (g *gapRecorder) RecordRun(obs.RunMeta) { g.last = time.Time{} }
func (g *gapRecorder) RecordEvent(obs.Event) {}
func (g *gapRecorder) RecordWindow(obs.Window) {
	now := time.Now()
	if !g.last.IsZero() {
		g.gaps = append(g.gaps, now.Sub(g.last).Seconds())
	}
	g.last = now
}

func seqLayers(e *env, st *state, r *run) error {
	rec := &gapRecorder{}
	for i := 0; i < e.sz.n(3); i++ {
		res, err := emu.Run(st.in.cfg, emu.WithRecorder(rec))
		if err != nil {
			return err
		}
		if res.Kernel.Windows != st.ref.Kernel.Windows {
			return fmt.Errorf("recorded run executed %d windows, reference %d", res.Kernel.Windows, st.ref.Kernel.Windows)
		}
	}
	if p50, ok := percentile(rec.gaps, 50); ok {
		r.set("des.window_us_p50", p50*1e6)
	}
	if p99, ok := percentile(rec.gaps, 99); ok {
		r.set("des.window_us_p99", p99*1e6)
	}

	// Flat and lazy ops alternate, so both medians see the same minutes.
	var flatS, lazyS []float64
	for i := 0; i < e.sz.n(3); i++ {
		smp, _, err := timeOp(st.op, nil, 0)
		if err != nil {
			return err
		}
		flatS = append(flatS, smp.seconds)
		lazy, err := netgraph.NewLazyRouting(st.in.sc.Network, 0)
		if err != nil {
			return err
		}
		smp, res, err := timeOp(emuOp(st.in.cfg, func() []emu.Option { return []emu.Option{emu.WithRouting(lazy)} }), nil, 0)
		if err != nil {
			return err
		}
		lazyS = append(lazyS, smp.seconds)
		r.check(st, res, "lazy-routing run")
	}
	r.set("netgraph.lazy_tax", median(lazyS)/median(flatS))
	return nil
}

// observedOpts attaches all four collectors, fresh per op.
func observedOpts() []emu.Option {
	return []emu.Option{emu.WithStats(), emu.WithTelemetry(telemetry.New()), emu.WithTrace(obs.NewTimeline())}
}

func replayObservedWorkload() *workload {
	return &workload{
		name:    "replay_teragrid_observed",
		why:     "the same emu layer with all four collectors writing: catches a collector change that taxes the disabled path, or the reverse",
		warmups: 1, ops: 10, opIsEmuRun: true,
		setup: func(e *env, tr *tracer, id int) (*state, error) {
			st, err := setupReplay(tr, id, "TeraGrid", e.sz.replayDur, e.seed)
			if err != nil {
				return nil, err
			}
			cfg := st.in.cfg
			cfg.Profile = true
			st.op = emuOp(cfg, observedOpts)
			// Collectors add their own outputs to the canonical result, so
			// ops must be byte-equal to each other and equal to the plain
			// reference on what the emulated network did.
			st.refSHA = ""
			ref := st.ref
			st.extra = func(res *emu.Result) error { return sameOutputs(ref, res) }
			return st, nil
		},
		layers: observedLayers,
	}
}

// sameOutputs compares the simulation outputs that no collector may change.
func sameOutputs(ref, res *emu.Result) error {
	switch {
	case res.Kernel.Windows != ref.Kernel.Windows:
		return fmt.Errorf("windows %d, reference %d", res.Kernel.Windows, ref.Kernel.Windows)
	case !reflect.DeepEqual(res.Kernel.Events, ref.Kernel.Events):
		return fmt.Errorf("per-engine events differ from reference")
	case res.AppTime != ref.AppTime || res.NetTime != ref.NetTime || res.Imbalance != ref.Imbalance:
		return fmt.Errorf("AppTime/NetTime/Imbalance %g/%g/%g, reference %g/%g/%g",
			res.AppTime, res.NetTime, res.Imbalance, ref.AppTime, ref.NetTime, ref.Imbalance)
	case !reflect.DeepEqual(res.EngineLoads, ref.EngineLoads):
		return fmt.Errorf("EngineLoads differ from reference")
	case !reflect.DeepEqual(res.FlowFCTs, ref.FlowFCTs):
		return fmt.Errorf("FlowFCTs differ from reference")
	}
	return nil
}

// observedLayers prices each collector alone, and all together: rounds of one
// op per variant, interleaved so the machine's slow minutes hit all variants
// alike; tax = median with ÷ median without, alloc = median MB with − median
// MB without.
func observedLayers(e *env, st *state, r *run) error {
	variants := []struct {
		tax, alloc string // metric names; the first variant is the base
		profile    bool
		opts       func() []emu.Option
	}{
		{"", "", false, nil},
		{"obs.stats_tax", "obs.stats_alloc_mb", false, func() []emu.Option { return []emu.Option{emu.WithStats()} }},
		{"telemetry.tax", "telemetry.alloc_mb", false, func() []emu.Option { return []emu.Option{emu.WithTelemetry(telemetry.New())} }},
		{"obs.timeline_tax", "obs.timeline_alloc_mb", false, func() []emu.Option { return []emu.Option{emu.WithTrace(obs.NewTimeline())} }},
		{"netflow.tax", "netflow.alloc_mb", true, nil},
		{"obs.all_tax", "", true, observedOpts}, // the workload's own op
	}
	secs := make([][]float64, len(variants))
	mbs := make([][]float64, len(variants))
	for round := 0; round < e.sz.n(3); round++ {
		for v, variant := range variants {
			cfg := st.in.cfg
			cfg.Profile = variant.profile
			smp, res, err := timeOp(emuOp(cfg, variant.opts), nil, 0)
			if err != nil {
				return err
			}
			if err := sameOutputs(st.ref, res); err != nil {
				return fmt.Errorf("variant %q: %w", variant.tax, err)
			}
			secs[v] = append(secs[v], smp.seconds)
			mbs[v] = append(mbs[v], smp.allocMB)
		}
	}
	base, baseMB := median(secs[0]), median(mbs[0])
	r.notef("collector taxes are against a base of %.4f s and %.1f MB per op with no collector", base, baseMB)
	for v, variant := range variants[1:] {
		r.set(variant.tax, median(secs[v+1])/base)
		if variant.alloc != "" {
			r.set(variant.alloc, median(mbs[v+1])-baseMB)
		}
	}
	return nil
}

func replayParWorkload() *workload {
	return &workload{
		name:    "replay_teragrid_par",
		why:     "the same des kernel through its parallel barrier path at GOMAXPROCS=nproc: does parallel pay on real cores",
		warmups: 1, ops: 10, opIsEmuRun: true,
		setup: func(e *env, tr *tracer, id int) (*state, error) {
			st, err := setupReplay(tr, id, "TeraGrid", e.sz.replayDur, e.seed)
			if err != nil {
				return nil, err
			}
			cfg := st.in.cfg
			cfg.Sequential = false
			st.op = emuOp(cfg, nil)
			return st, nil
		},
		layers: parLayers,
	}
}

func parLayers(e *env, st *state, r *run) error {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		// The kernel degrades to its sequential loop on one processor, so
		// there is no parallel path to describe.
		r.notef("GOMAXPROCS=%d: the parallel barrier path did not run; des.par_* are absent", procs)
		return nil
	}
	r.set("des.gomaxprocs", float64(procs))
	r.set("des.par_kernel_s", median(r.kernelS))

	// Sequential and parallel ops alternate, so both medians see the same
	// minutes; one more parallel run with WithStats reads the barrier wait.
	var seqS, parS []float64
	for i := 0; i < e.sz.n(3); i++ {
		smp, _, err := timeOp(emuOp(st.in.cfg, nil), nil, 0)
		if err != nil {
			return err
		}
		seqS = append(seqS, smp.seconds)
		if smp, _, err = timeOp(st.op, nil, 0); err != nil {
			return err
		}
		parS = append(parS, smp.seconds)
	}
	r.notef("des.par_over_seq is against a sequential op of %.4f s", median(seqS))
	r.set("des.par_over_seq", median(parS)/median(seqS))
	par := st.in.cfg
	par.Sequential = false
	res, err := emu.Run(par, emu.WithStats())
	if err != nil {
		return err
	}
	r.set("des.barrier_wait_s", res.Obs.TotalBarrierWait())
	return nil
}

// ---- dist_campus_tcp ----

func distWorkload() *workload {
	return &workload{
		name:    "dist_campus_tcp",
		why:     "the deployment shape the paper ran: Campus has the most windows per event, so framing and two round trips per window do nearly all the work",
		warmups: 1, ops: 3,
		setup: func(e *env, tr *tracer, id int) (*state, error) {
			st, err := setupReplay(tr, id, "Campus", e.sz.distDur, e.seed)
			if err != nil {
				return nil, err
			}
			st.op = func(tr *tracer, id int) (*emu.Result, error) {
				if tr == nil {
					return distRun(st.in.cfg, tcpTransport, nil, nil)
				}
				s := tr.begin("dist.run_tcp", id)
				defer tr.end(s)
				coord, workers := &connStats{peers: distWorkers}, &connStats{}
				t0 := time.Now()
				res, err := distRun(st.in.cfg, tcpTransport, coord, workers)
				if err == nil {
					st.coord = append(st.coord, coord)
					st.workers = append(st.workers, workers)
					st.handshakes = append(st.handshakes, coord.firstEvents.Sub(t0).Seconds())
				}
				return res, err
			}
			return st, nil
		},
		layers: distLayers,
	}
}

type transport int

const (
	tcpTransport transport = iota
	loopbackTransport
)

// distRun performs one distributed run of cfg: distWorkers in-process
// workers, each on its own connection, driven by dist.Run on the calling
// goroutine. With stats non-nil every connection is wrapped in a recorder.
// It returns once every worker has ended.
func distRun(cfg emu.Config, tp transport, coord, workers *connStats) (*emu.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	wrap := func(c dist.Conn, st *connStats) dist.Conn {
		if st == nil {
			return c
		}
		return recConn{Conn: c, st: st}
	}
	werrs := make(chan error, distWorkers) // one send per worker
	conns := make([]dist.Conn, 0, distWorkers)
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	switch tp {
	case tcpTransport:
		l, err := dist.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		for i := 0; i < distWorkers; i++ {
			go func() {
				c, err := dist.Dial(ctx, l.Addr().String())
				if err != nil {
					werrs <- err
					return
				}
				defer c.Close()
				werrs <- dist.Serve(ctx, wrap(c, workers), dist.WorkerOptions{})
			}()
		}
		for i := 0; i < distWorkers; i++ {
			c, err := dist.Accept(ctx, l)
			if err != nil {
				cancel()
				closeAll()
				for j := 0; j < distWorkers; j++ {
					<-werrs
				}
				return nil, err
			}
			conns = append(conns, wrap(c, coord))
		}
	case loopbackTransport:
		for i := 0; i < distWorkers; i++ {
			c, s := dist.Loopback()
			conns = append(conns, wrap(c, coord))
			go func() { werrs <- dist.Serve(ctx, wrap(s, workers), dist.WorkerOptions{}) }()
		}
	}
	res, err := dist.Run(ctx, &dist.RunSpec{Cfg: cfg}, conns, dist.Options{})
	if err != nil {
		cancel()
	}
	closeAll()
	for i := 0; i < distWorkers; i++ {
		if werr := <-werrs; werr != nil && err == nil {
			err = fmt.Errorf("worker: %w", werr)
		}
	}
	return res, err
}

func distLayers(e *env, st *state, r *run) error {
	n := float64(len(st.coord))
	if n == 0 {
		return fmt.Errorf("no traced distributed op completed")
	}
	windows := float64(st.ref.Kernel.Windows)
	var frames, bytes, sendS, recvS, busyS, idleS float64
	var rtts []float64
	tracedS := r.seconds(true) // every traced op that completed left its stats
	for i, c := range st.coord {
		frames += float64(c.frames())
		bytes += float64(c.bytes())
		sendS += c.sendS
		recvS += c.recvS
		rtts = append(rtts, c.rtts...)
		w := st.workers[i]
		idleS += w.recvS
		busyS += tracedS[i]*distWorkers - w.recvS - w.sendS
		if got, want := c.frames(), w.frames(); got != want {
			return fmt.Errorf("coordinator saw %d frames, workers %d", got, want)
		}
	}
	tcp := median(r.seconds(true))
	r.set("dist.handshake_s", median(st.handshakes))
	r.set("dist.frames_per_window", frames/n/windows)
	r.set("dist.wire_bytes_per_window", bytes/n/windows)
	r.set("dist.wire_mb_per_op", bytes/n/1e6)
	r.set("dist.coord_send_s", sendS/n)
	r.set("dist.coord_recv_wait_s", recvS/n)
	r.set("dist.coord_self_s", tcp-sendS/n-recvS/n)
	r.set("dist.worker_busy_s", busyS/n)
	r.set("dist.worker_idle_s", idleS/n)
	if p50, ok := percentile(rtts, 50); ok {
		r.set("dist.window_rtt_us_p50", p50*1e6)
	}
	if p99, ok := percentile(rtts, 99); ok {
		r.set("dist.window_rtt_us_p99", p99*1e6)
	}

	var loopS, inprocS []float64
	for i := 0; i < e.sz.n(2); i++ {
		smp, res, err := timeOp(func(*tracer, int) (*emu.Result, error) {
			return distRun(st.in.cfg, loopbackTransport, nil, nil)
		}, nil, 0)
		if err != nil {
			return err
		}
		r.check(st, res, "loopback run")
		loopS = append(loopS, smp.seconds)
	}
	for i := 0; i < e.sz.n(5); i++ {
		smp, res, err := timeOp(emuOp(st.in.cfg, nil), nil, 0)
		if err != nil {
			return err
		}
		r.kernel(res, smp.seconds)
		inprocS = append(inprocS, smp.seconds)
	}
	untraced := median(r.seconds(false))
	r.set("dist.loopback_op_s", median(loopS))
	r.set("dist.inproc_op_s", median(inprocS))
	r.set("dist.tcp_over_inproc", untraced/median(inprocS))
	r.set("dist.loopback_over_inproc", median(loopS)/median(inprocS))
	return nil
}

func allWorkloads() []*workload {
	return []*workload{mapWorkload(), replaySeqWorkload(), replayObservedWorkload(), replayParWorkload(), distWorkload()}
}
