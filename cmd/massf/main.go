// Command massf runs one distributed network emulation: it builds a
// topology, generates the background and foreground traffic of the paper's
// evaluation, maps the virtual network onto simulation engines with the
// chosen approach (TOP, PLACE, or PROFILE), and reports the paper's three
// metrics — load imbalance, application emulation time, and isolated network
// emulation (replay) time.
//
// Usage:
//
//	massf -topology TeraGrid -app ScaLapack -approach PROFILE -duration 120
//
// Topologies: Campus, TeraGrid, Brite, Brite-large. Apps: ScaLapack,
// GridNPB, none. Approaches: TOP, PLACE, PROFILE, all.
//
// Fault injection: repeat -fault to build a deterministic schedule —
//
//	massf -topology Campus -fault crash:1@30 -fault slow:0@10-20x4 -checkpoint 5
//
// crash:E@T kills engine E at virtual time T (its nodes are remapped onto the
// survivors at the next barrier, and the run since the last -checkpoint
// barrier is charged as recovery downtime); slow:E@T1-T2xF runs engine E F
// times slower over [T1,T2); degrade@T1-T2xF multiplies the cross-engine
// message cost. -naive-recovery dumps a dead engine's nodes onto one
// survivor instead of repartitioning, for comparison.
//
// Dynamic remapping: -remap-interval N re-partitions the virtual network
// every N virtual seconds from the live measured traffic, starting from each
// -approach's mapping, and prints the per-segment imbalance, migration and
// cross-engine-traffic table instead of the approach row —
//
//	massf -topology Campus -app GridNPB -approach TOP -remap-interval 10 -remap-policy game
//
// -remap-policy selects profile (from-scratch PROFILE, the default), game
// (game-theoretic iterative repartitioning to a Nash-style fixed point) or
// diffusion (the traffic-blind load-diffusion baseline).
//
// Observability: -stats prints the kernel's aggregated run counters, -trace
// FILE writes the deterministic JSONL kernel trace (suffixed .<approach> when
// -approach all), and -pprof ADDR serves /debug/pprof and /debug/vars for
// live profiling. Ctrl-C cancels the run at the next window barrier.
//
// Traffic telemetry: -metrics ADDR serves the Prometheus-style /metrics
// exposition and the live /trafficmatrix JSON (plus pprof and expvar) while
// runs are in flight, and -matrix-out FILE writes each run's final traffic
// matrix snapshot as JSON (suffixed .<approach> when -approach all).
//
// Window tracing: -trace-out FILE writes the run's virtual-time window
// timeline — per-engine compute spans and barrier-wait gaps, with straggler
// attribution — as Chrome trace_event JSON, loadable in Perfetto or
// chrome://tracing. Works in-process and as the distributed coordinator
// (workers measure, the coordinator merges); with -coordinator -metrics the
// endpoint additionally serves per-worker gated-window counters,
// critical-path shares and heartbeat RTTs plus a /healthz summary.
//
// Elastic membership: -coordinator ADDR -workers N -approach TOP -elastic
// keeps the listener open after the run starts — late workers join at the
// next checkpoint barrier, a worker's Ctrl-C drains it gracefully, and a
// killed worker is detected (add -hb-interval 500ms for liveness pings) and
// recovered by an in-process re-run with its engines fail-stopped. -capacity raises the engine ceiling so
// joiners beyond the topology's default engine count have slots to fill.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/netdesc"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint(*m) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var (
		topology  = flag.String("topology", "Campus", "Campus | TeraGrid | Brite | Brite-large")
		netfile   = flag.String("netfile", "", "load the topology from a network description file instead")
		engines   = flag.Int("engines", 0, "engine count override (required with -netfile)")
		export    = flag.String("export", "", "write the topology as a network description file and exit")
		app       = flag.String("app", "ScaLapack", "ScaLapack | GridNPB")
		approach  = flag.String("approach", "all", "TOP | PLACE | PROFILE | all")
		duration  = flag.Float64("duration", 120, "virtual duration in seconds")
		seed      = flag.Int64("seed", 42, "seed for generators and partitioner")
		verbose   = flag.Bool("v", false, "print per-engine loads")
		topostats = flag.Bool("topostats", false, "print topology statistics and exit")
		record    = flag.String("record", "", "write the generated workload trace to this file")
		replay    = flag.String("replay", "", "emulate a previously recorded workload trace instead of generating traffic")

		routing     = flag.String("routing", "auto", "route oracle backend: auto | flat | lazy")
		routingRows = flag.Int("routing-rows", 0, "lazy routing LRU row capacity (0 = automatic, sized for a 256 MB budget)")

		checkpoint = flag.Float64("checkpoint", 10, "checkpoint cadence in virtual seconds: membership changes apply at these barriers, and a crash is charged the run since the last one")
		naive      = flag.Bool("naive-recovery", false, "recover crashes by dumping onto one survivor instead of remapping")

		stats     = flag.Bool("stats", false, "print the kernel's aggregated observability counters per run")
		tracePath = flag.String("trace", "", "write the deterministic JSONL kernel trace to this file (.<approach> suffix with -approach all)")
		pprofAddr = flag.String("pprof", "", "serve /debug/pprof and Go's runtime vars at /debug/vars on this address (e.g. localhost:6060); live run counters are on -metrics")

		metricsAddr = flag.String("metrics", "", "serve Prometheus /metrics and live /trafficmatrix (plus pprof and expvar) on this address")
		matrixOut   = flag.String("matrix-out", "", "write each run's final traffic matrix JSON to this file (.<approach> suffix with -approach all)")
		traceOut    = flag.String("trace-out", "", "write each run's window timeline as Chrome trace_event JSON to this file (.<approach> suffix with -approach all)")

		workerAddr = flag.String("worker", "", "run as a distributed worker: dial the coordinator at this address and serve engines")
		coordAddr  = flag.String("coordinator", "", "run as the distributed coordinator: listen on this address for workers")
		workers    = flag.Int("workers", 0, "number of worker connections to wait for (with -coordinator)")
		resultOut  = flag.String("result-out", "", "write the run's canonical result JSON to this file (.<approach> suffix with -approach all)")

		remapInterval = flag.Float64("remap-interval", 0, "dynamic remapping: repartition every N virtual seconds from the measured traffic (0 = off)")
		remapPolicy   = flag.String("remap-policy", "profile", "dynamic remap policy: profile | game | diffusion (with -remap-interval)")

		elastic    = flag.Bool("elastic", false, "elastic membership: keep listening for joiners mid-run; workers may drain (Ctrl-C) or die (TOP only)")
		capacity   = flag.Int("capacity", 0, "engine capacity for -elastic (max workers × engines-per-worker; default: the topology's engine count)")
		hbInterval = flag.Duration("hb-interval", 0, "heartbeat interval for liveness detection (0 disables; with -coordinator)")
		hbMisses   = flag.Int("hb-misses", 3, "consecutive missed heartbeats before a worker is declared dead")
	)
	var faultSpecs multiFlag
	flag.Var(&faultSpecs, "fault", "fault spec (crash:E@T | slow:E@T1-T2xF | degrade@T1-T2xF); repeatable")
	flag.Parse()

	var sched *faults.Schedule
	if len(faultSpecs) > 0 {
		var err error
		if sched, err = faults.Parse(faultSpecs); err != nil {
			fatal(err)
		}
	}

	if err := validateFlags(cliFlags{
		routing:     *routing,
		routingRows: *routingRows,

		netfile:     *netfile,
		engines:     *engines,
		export:      *export,
		topostats:   *topostats,
		approach:    *approach,
		duration:    *duration,
		record:      *record,
		replay:      *replay,
		tracePath:   *tracePath,
		stats:       *stats,
		pprofAddr:   *pprofAddr,
		metricsAddr: *metricsAddr,
		matrixOut:   *matrixOut,
		traceOut:    *traceOut,
		worker:      *workerAddr,
		coordinator: *coordAddr,
		workers:     *workers,
		resultOut:   *resultOut,
		faults:      sched != nil,
		crashes:     sched.HasCrashes(),
		elastic:     *elastic,
		capacity:    *capacity,

		remapInterval: *remapInterval,
		remapPolicy:   *remapPolicy,
	}); err != nil {
		fatal(err)
	}

	if *workerAddr != "" {
		// Worker mode: no local scenario — the coordinator ships the full
		// normalized spec over the wire. The first Ctrl-C requests a graceful
		// drain (the coordinator migrates this worker's state away at the next
		// checkpoint barrier); a second Ctrl-C aborts hard.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "worker: "+format+"\n", args...)
		}
		drain := make(chan struct{})
		sig := make(chan os.Signal, 2)
		signal.Notify(sig, os.Interrupt)
		defer signal.Stop(sig)
		go func() {
			<-sig
			logf("interrupt: draining at the next checkpoint barrier (interrupt again to abort)")
			close(drain)
			<-sig
			cancel()
		}()
		logf("dialing coordinator at %s", *workerAddr)
		if err := dist.DialAndServe(ctx, *workerAddr, dist.WorkerOptions{Logf: logf, Drain: drain}); err != nil {
			fatal(fmt.Errorf("worker: %w", err))
		}
		logf("run complete")
		return
	}

	cfg := experiments.Config{Duration: *duration, Seed: *seed}
	sc, err := experiments.ScenarioFor(cfg, *topology, *app)
	if err != nil {
		fatal(err)
	}
	// Already validated above; resolve the oracle selection for the scenario.
	sc.Routing, _ = routingOptions(*routing, *routingRows)
	if *netfile != "" {
		f, err := os.Open(*netfile)
		if err != nil {
			fatal(err)
		}
		nw, err := netdesc.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		sc.Network = nw
		sc.Engines = *engines
		sc.Name = fmt.Sprintf("%s/%s", nw.Name, *app)
	}
	if *topostats {
		fmt.Printf("%s topology statistics:\n%s", sc.Network.Name, sc.Network.ComputeStats())
		return
	}
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fatal(err)
		}
		if err := netdesc.Write(f, sc.Network); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d nodes, %d links)\n", *export, sc.Network.NumNodes(), len(sc.Network.Links))
		return
	}

	var approaches []mapping.Approach
	if *approach == "all" {
		approaches = mapping.Approaches()
	} else {
		approaches = []mapping.Approach{mapping.Approach(*approach)}
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		tr, err := traffic.ReadWorkload(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		sc.SetWorkload(tr)
	}
	w, err := sc.Workload()
	if err != nil {
		fatal(err)
	}
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fatal(err)
		}
		if err := traffic.WriteWorkload(f, &w); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "recorded %d flows to %s\n", len(w.Flows), *record)
	}
	fmt.Printf("%s: %d nodes (%d routers, %d hosts), %d engines, %d flows, %.1f MB\n",
		sc.Name, sc.Network.NumNodes(), sc.Network.NumRouters(), sc.Network.NumHosts(),
		sc.Engines, len(w.Flows), float64(w.TotalBytes())/1e6)

	if sched != nil {
		fmt.Printf("fault schedule: %s\n", sched)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var workerConns []dist.Conn
	var joins chan dist.Conn
	if *coordAddr != "" {
		l, err := dist.Listen(*coordAddr)
		if err != nil {
			fatal(fmt.Errorf("coordinator: %w", err))
		}
		fmt.Fprintf(os.Stderr, "coordinator: waiting for %d worker(s) on %s\n", *workers, l.Addr())
		for i := 0; i < *workers; i++ {
			c, err := dist.Accept(ctx, l)
			if err != nil {
				l.Close()
				fatal(fmt.Errorf("coordinator: accepting worker %d of %d: %w", i+1, *workers, err))
			}
			workerConns = append(workerConns, c)
			fmt.Fprintf(os.Stderr, "coordinator: worker %d/%d connected (%s)\n", i+1, *workers, c.Label())
		}
		if *elastic {
			// Keep the listener open: late arrivals become joiners, admitted
			// at the next checkpoint barrier. The accept loop dies with the
			// run context (Accept closes the listener on cancellation).
			joins = make(chan dist.Conn, 4)
			if *capacity > 0 {
				sc.Engines = *capacity
			}
			go func() {
				defer l.Close()
				for {
					c, err := dist.Accept(ctx, l)
					if err != nil {
						return
					}
					fmt.Fprintf(os.Stderr, "coordinator: joiner connected (%s)\n", c.Label())
					select {
					case joins <- c:
					case <-ctx.Done():
						c.Close()
						return
					}
				}
			}()
		} else {
			l.Close()
		}
	}

	sc.CollectStats = *stats
	if *pprofAddr != "" {
		srv, base, err := obs.ServeDebug(*pprofAddr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint: %s/debug/pprof/ and %s/debug/vars\n", base, base)
	}
	var tel *telemetry.Collector
	if *metricsAddr != "" || *matrixOut != "" {
		// One shared collector across runs: the endpoints always show the
		// current (or most recent) run's traffic plane.
		tel = telemetry.New()
		sc.TelemetryCollector = tel
	}
	var health *telemetry.ClusterHealth
	if *metricsAddr != "" && *coordAddr != "" {
		// Coordinator runs add the cluster-health plane: worker count,
		// straggler attribution (fed by the tracing timeline), heartbeat RTTs.
		health = telemetry.NewClusterHealth()
		sc.ClusterHealth = health
	}
	if *metricsAddr != "" {
		srv, base, err := obs.ServeDebug(*metricsAddr, telemetry.MountCluster(tel, health))
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry endpoint: %s/metrics and %s/trafficmatrix\n", base, base)
		if health != nil {
			fmt.Fprintf(os.Stderr, "cluster health: %s/healthz\n", base)
		}
	}

	// The scenario says who changes membership mid-run; where says where the
	// engines run.
	sc.Faults = sched
	if *remapInterval > 0 {
		sc.Remap, _ = core.ParseRemapPolicy(*remapPolicy) // validated above
		sc.RemapEvery = *remapInterval
	}
	var where []core.RunOption
	if workerConns != nil {
		opt := dist.Options{Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "coordinator: "+format+"\n", args...)
		}}
		if *elastic {
			opt.CheckpointEvery = *checkpoint
			where = append(where, core.Elastic(workerConns, dist.ElasticOptions{
				Options:           opt,
				Joins:             joins,
				HeartbeatInterval: *hbInterval,
				HeartbeatMisses:   *hbMisses,
			}))
		} else {
			where = append(where, core.OnWorkers(workerConns, opt))
		}
	} else {
		sc.CheckpointEvery, sc.NaiveRecovery = *checkpoint, *naive
	}

	if sc.RemapEvery > 0 {
		fmt.Printf("dynamic remapping: policy=%s interval=%gs\n", sc.Remap, sc.RemapEvery)
	} else {
		fmt.Printf("%-8s %10s %12s %12s %10s %9s %10s %9s\n",
			"approach", "imbalance", "app-time(s)", "net-time(s)", "lookahead", "windows", "remote-ev", "wall")
	}
	for _, a := range approaches {
		var tr *obs.Trace
		sc.Recorder = nil
		if *tracePath != "" {
			path := *tracePath
			if len(approaches) > 1 {
				path += "." + string(a)
			}
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			tr = obs.NewTraceCloser(f)
			sc.Recorder = tr
			fmt.Fprintf(os.Stderr, "tracing %s run to %s\n", a, path)
		}
		var tl *obs.Timeline
		if *traceOut != "" || health != nil {
			// Fresh per approach so the timeline describes one run; the health
			// plane needs it too (straggler attribution derives from spans).
			tl = obs.NewTimeline()
			sc.Trace = tl
		}

		start := time.Now()
		o, err := sc.Run(ctx, a, where...)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", a, err))
		}
		if tr != nil {
			if err := tr.Close(); err != nil {
				fatal(fmt.Errorf("%s: writing trace: %w", a, err))
			}
		}
		if tl != nil && *traceOut != "" {
			path := *traceOut
			if len(approaches) > 1 {
				path += "." + string(a)
			}
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := tl.WriteTraceEvents(f); err != nil {
				f.Close()
				fatal(fmt.Errorf("%s: writing window trace: %w", a, err))
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s window trace to %s\n", a, path)
		}
		r, wall := o.Result, time.Since(start).Round(time.Millisecond)
		if o.Segments != nil {
			if len(approaches) > 1 {
				fmt.Printf("%s:\n", a)
			}
			printSegments(o, wall)
		} else {
			fmt.Printf("%-8s %10.3f %12.1f %12.1f %9.2gms %9d %10d %9s\n",
				a, r.Imbalance, r.AppTime, r.NetTime, r.Lookahead*1e3,
				r.Kernel.Windows, r.RemoteEvents, wall)
		}
		if *resultOut != "" {
			path := *resultOut
			if len(approaches) > 1 {
				path += "." + string(a)
			}
			blob, err := dist.ResultJSON(r)
			if err != nil {
				fatal(fmt.Errorf("%s: canonical result: %w", a, err))
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s canonical result to %s\n", a, path)
		}
		if *stats && r.Obs != nil {
			summary := r.Obs.String()
			if tl != nil {
				if straggler := tl.Summary(); straggler != "" {
					summary += "; " + straggler
				}
			}
			fmt.Printf("         kernel: %s\n", summary)
		}
		if mlog := o.Membership; mlog != nil && (len(mlog.Resizes) > 0 || len(mlog.Losses) > 0) {
			fmt.Printf("         membership: %d resize(s), %d worker loss(es)\n",
				len(mlog.Resizes), len(mlog.Losses))
			for _, rz := range mlog.Resizes {
				fmt.Printf("           t=%.2f -> %d engine(s) %v\n", rz.At, len(rz.Engines), rz.Engines)
			}
		}
		if rec := r.Recovery; rec != nil {
			fmt.Printf("         recovery: %d crash(es) %v, %d checkpoint(s), downtime %.3fs, "+
				"replayed %d events, migrated %d nodes\n",
				rec.Failures, rec.DeadEngines, rec.Checkpoints, rec.Downtime,
				rec.ReplayedEvents, rec.Migrations)
			fmt.Printf("         imbalance pre-failure %.3f -> post-recovery %.3f (surviving engines)\n",
				rec.PreFailureImbalance, rec.PostRecoveryImbalance)
		}
		if ts := r.Telemetry; ts != nil {
			if *matrixOut != "" {
				path := *matrixOut
				if len(approaches) > 1 {
					path += "." + string(a)
				}
				f, err := os.Create(path)
				if err != nil {
					fatal(err)
				}
				if err := telemetry.WriteMatrixJSON(f, ts); err != nil {
					f.Close()
					fatal(fmt.Errorf("%s: writing traffic matrix: %w", a, err))
				}
				if err := f.Close(); err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "wrote %s traffic matrix to %s\n", a, path)
			}
			if o.Segments == nil { // a remapped run's total line reports its traffic
				crossPct := 0.0
				if ts.TotalBytes > 0 {
					crossPct = 100 * float64(ts.CrossEngineBytes) / float64(ts.TotalBytes)
				}
				fmt.Printf("         traffic: %.1f MB total, %.1f%% cross-engine, queue-delay p99 %.3gms, fct p99 %.3gs\n",
					float64(ts.TotalBytes)/1e6, crossPct, ts.QueueDelayP99*1e3, ts.FCTP99)
			}
		}
		if *verbose {
			fmt.Printf("         engine loads: %v (max/mean %.2f)\n",
				r.EngineLoads, metrics.MaxOverMean(r.EngineLoads))
			completed, fctMean, fctP95 := r.FCTStats()
			fmt.Printf("         flows completed: %d/%d  fct mean=%.3gs p95=%.3gs  drops=%d\n",
				completed, len(r.FlowFCTs), fctMean, fctP95, r.DroppedPackets)
			q := mapping.Assess(sc.Network, r.FinalAssignment, sc.Engines, nil)
			fmt.Printf("         %s", q.String())
		}
	}
}

// printSegments prints a remapped run's per-segment table and its total line.
func printSegments(o *core.Outcome, wall time.Duration) {
	fmt.Printf("%8s %10s %7s %11s %9s %7s %6s %10s\n",
		"start(s)", "imbalance", "flows", "migrations", "cross-MB", "rounds", "moves", "converged")
	for _, s := range o.Segments {
		rounds, moves, conv := "-", "-", "-"
		if s.Remap != nil {
			moves = fmt.Sprint(s.Remap.MovesTaken)
			if s.Remap.Policy == core.RemapGame {
				rounds = fmt.Sprint(s.Remap.Rounds)
				conv = fmt.Sprint(s.Remap.Converged)
			}
		}
		fmt.Printf("%8.1f %10.3f %7d %11d %9.2f %7s %6s %10s\n",
			s.Start, s.Imbalance, s.Flows, s.Migrations,
			float64(s.CrossEngineBytes)/1e6, rounds, moves, conv)
	}
	r := o.Result
	fmt.Printf("total: imbalance %.3f (mean segment %.3f), app-time %.1fs, net-time %.1fs, "+
		"%d migrations, %.1f MB cross-engine, wall %s\n",
		r.Imbalance, o.MeanSegmentImbalance, r.AppTime, r.NetTime,
		o.Migrations, float64(r.Telemetry.CrossEngineBytes)/1e6, wall)
}

// cliFlags is the subset of flag state the combination checks inspect.
type cliFlags struct {
	routing     string
	routingRows int

	netfile, export        string
	engines                int
	topostats              bool
	approach               string
	duration               float64
	record, replay         string
	tracePath              string
	stats                  bool
	pprofAddr              string
	metricsAddr, matrixOut string
	traceOut               string
	worker, coordinator    string
	workers                int
	resultOut              string
	faults, crashes        bool
	elastic                bool
	capacity               int

	remapInterval float64
	remapPolicy   string
}

// Flag-combination errors — typed so callers (and tests) can match them with
// errors.Is instead of scraping message text.
var (
	errNetfileNeedsEngines = errors.New("-netfile requires -engines")
	errEnginesNeedNetfile  = errors.New("-engines only applies together with -netfile")
	errRecordReplay        = errors.New("-record with -replay would only copy the input trace")
	errNoRun               = errors.New("needs an emulation run, but -export/-topostats exit before one")
	errAddrClash           = errors.New("-metrics and -pprof need distinct addresses (the -metrics server already includes pprof and expvar)")
	errBadApproach         = errors.New("-approach must be TOP, PLACE, PROFILE, or all")
	errBadDuration         = errors.New("-duration must be positive and finite")

	errWorkerExclusive    = errors.New("-worker runs no local emulation and takes no other mode flags")
	errCoordinatorOneRun  = errors.New("-coordinator needs a single -approach (not all)")
	errCoordinatorFaults  = errors.New("-coordinator cannot combine with a crash -fault (worker loss is the distributed fault path)")
	errCoordinatorWorkers = errors.New("-coordinator requires -workers >= 1")
	errWorkersNeedCoord   = errors.New("-workers only applies together with -coordinator")
	errElasticNeedsCoord  = errors.New("-elastic only applies together with -coordinator")
	errElasticTop         = errors.New("-elastic repartitions with the TOP mapper; use -approach TOP")
	errCapacityElastic    = errors.New("-capacity only applies together with -elastic")

	errBadRemapInterval    = errors.New("-remap-interval must be positive and finite")
	errBadRemapPolicy      = errors.New("-remap-policy must be profile, game or diffusion")
	errRemapPolicyInterval = errors.New("-remap-policy only applies together with -remap-interval")
	errRemapModeExclusive  = errors.New("-remap-interval runs in-process without crashes and cannot combine with -coordinator or a crash -fault")
)

// validateFlags rejects contradictory flag combinations up front, before any
// topology or traffic generation runs.
func validateFlags(f cliFlags) error {
	if f.worker != "" {
		// A worker has no scenario of its own: everything arrives from the
		// coordinator, so every local-run flag is a contradiction.
		others := []bool{
			f.coordinator != "", f.workers != 0, f.netfile != "", f.export != "",
			f.topostats, f.record != "", f.replay != "", f.tracePath != "",
			f.stats, f.metricsAddr != "", f.matrixOut != "", f.traceOut != "", f.resultOut != "",
			f.faults, f.elastic, f.capacity != 0,
			f.routing != "" && f.routing != "auto", f.routingRows != 0,
			f.remapInterval != 0, f.remapPolicy != "" && f.remapPolicy != "profile",
		}
		for _, set := range others {
			if set {
				return errWorkerExclusive
			}
		}
		return nil
	}
	if f.coordinator != "" {
		if f.approach == "all" {
			return errCoordinatorOneRun
		}
		if f.crashes {
			return errCoordinatorFaults
		}
		if f.workers < 1 {
			return errCoordinatorWorkers
		}
		if f.elastic && f.approach != string(mapping.Top) {
			return errElasticTop
		}
	} else if f.workers != 0 {
		return errWorkersNeedCoord
	} else if f.elastic {
		return errElasticNeedsCoord
	}
	if f.capacity != 0 && !f.elastic {
		return errCapacityElastic
	}
	if !(f.remapInterval >= 0) || math.IsInf(f.remapInterval, 1) { // true for NaN
		return fmt.Errorf("%w (got %g)", errBadRemapInterval, f.remapInterval)
	}
	if f.remapInterval == 0 && f.remapPolicy != "" && f.remapPolicy != "profile" {
		return errRemapPolicyInterval
	}
	if f.remapInterval > 0 {
		policy := f.remapPolicy
		if policy == "" {
			policy = "profile"
		}
		if _, err := core.ParseRemapPolicy(policy); err != nil {
			return fmt.Errorf("%w (got %q)", errBadRemapPolicy, f.remapPolicy)
		}
		if f.coordinator != "" || f.crashes {
			return errRemapModeExclusive
		}
	}
	if !(f.duration > 0) || math.IsInf(f.duration, 1) { // true for NaN
		return fmt.Errorf("%w (got %g)", errBadDuration, f.duration)
	}
	if f.approach != "all" {
		valid := false
		for _, a := range mapping.Approaches() {
			if string(a) == f.approach {
				valid = true
			}
		}
		if !valid {
			return fmt.Errorf("%w (got %q)", errBadApproach, f.approach)
		}
	}
	if f.netfile != "" && f.engines <= 0 {
		return errNetfileNeedsEngines
	}
	if f.netfile == "" && f.engines != 0 {
		return errEnginesNeedNetfile
	}
	if f.record != "" && f.replay != "" {
		return errRecordReplay
	}
	if f.export != "" || f.topostats {
		runFlags := []struct {
			name string
			set  bool
		}{
			{"-record", f.record != ""},
			{"-replay", f.replay != ""},
			{"-trace", f.tracePath != ""},
			{"-stats", f.stats},
			{"-pprof", f.pprofAddr != ""},
			{"-metrics", f.metricsAddr != ""},
			{"-matrix-out", f.matrixOut != ""},
			{"-trace-out", f.traceOut != ""},
		}
		for _, rf := range runFlags {
			if rf.set {
				return fmt.Errorf("%s %w", rf.name, errNoRun)
			}
		}
	}
	if f.metricsAddr != "" && f.metricsAddr == f.pprofAddr {
		return errAddrClash
	}
	if _, err := routingOptions(f.routing, f.routingRows); err != nil {
		return err
	}
	return nil
}

// routingOptions parses the -routing flags into the netgraph selection. The
// returned errors wrap netgraph.ErrRoutingConfig, so callers and tests match
// them with errors.Is.
func routingOptions(backend string, rows int) (netgraph.RoutingOptions, error) {
	if backend == "" {
		backend = "auto"
	}
	b, err := netgraph.ParseBackend(backend)
	if err != nil {
		return netgraph.RoutingOptions{}, fmt.Errorf("-routing: %w", err)
	}
	o := netgraph.RoutingOptions{Backend: b, LazyRows: rows}
	if err := o.Validate(); err != nil {
		return netgraph.RoutingOptions{}, err
	}
	return o, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "massf:", err)
	os.Exit(1)
}
