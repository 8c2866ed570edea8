package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/mapping"
)

// Elastic distributed execution: the run starts on the initial worker set
// and the membership changes underneath it — joiners are admitted from
// opt.Joins, drainers leave gracefully, and dead workers fail-stop into the
// crash-recovery replay. Scenario.Engines is the engine capacity; the
// initial workers activate the first len(workers)×EnginesPerWorker engines
// and the TOP partition is computed over exactly that active set.

// RunElastic executes the scenario's workload under the TOP partition with
// elastic membership. The repartitioning policy at every membership change
// is mapping.RemapOnto — the same balance-vs-migration tradeoff the crash
// path uses, generalized to grow and shrink. The returned MembershipLog
// replays the run in-process (see dist.RunElastic).
func (sc *Scenario) RunElastic(ctx context.Context, workers []dist.Conn, opt dist.ElasticOptions) (*Outcome, *dist.MembershipLog, error) {
	q := opt.EnginesPerWorker
	if q <= 0 {
		q = 1
	}
	k0 := len(workers) * q
	if k0 <= 0 || k0 > sc.Engines {
		return nil, nil, fmt.Errorf("core: %d initial workers × %d engines exceeds capacity %d",
			len(workers), q, sc.Engines)
	}
	in, err := sc.mappingInput()
	if err != nil {
		return nil, nil, err
	}
	in.K = k0
	part, err := mapping.TopMap(in)
	if err != nil {
		return nil, nil, err
	}
	spec, err := sc.distSpec(ctx, part, sc.lossRemap())
	if err != nil {
		return nil, nil, err
	}
	if opt.OnResize == nil {
		opt.OnResize = func(ev emu.ResizeEvent) ([]int, error) {
			return sc.remapOnto(ev.Previous, ev.Engines, ev.Loads)
		}
	}
	res, log, err := dist.RunElastic(ctx, spec, workers, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("core: elastic run on %s: %w", sc.Name, err)
	}
	return &Outcome{Approach: mapping.Top, Assignment: part, Result: res}, log, nil
}

// lossRemap is the crash-recovery repartitioning policy shared by the live
// elastic run and its replay: survivors are the engines actually hosting
// nodes (the active membership) minus the dead ones — never-activated
// capacity engines have no worker to run them. That rule is what keeps it
// apart from survivorRemap, which remaps onto every engine still alive.
func (sc *Scenario) lossRemap() func(emu.EngineFailure) ([]int, error) {
	return func(f emu.EngineFailure) ([]int, error) {
		active := make(map[int]bool, len(f.Assignment))
		for _, e := range f.Assignment {
			active[e] = true
		}
		var survivors []int
		for e := range active {
			if f.Alive[e] {
				survivors = append(survivors, e)
			}
		}
		sort.Ints(survivors)
		return sc.remapOnto(f.Assignment, survivors, f.Loads)
	}
}

// ReplayElastic re-runs an elastic distributed run in-process from its
// membership log: the applied resizes replay through Config.Elastic and the
// recorded worker losses replay as engine fail-stops under the same
// repartitioning policy the live run used. checkpointEvery must match the
// live run's cadence (it positions the rollback checkpoints for the loss
// replay). This is the equivalence oracle the tests diff against, and an
// offline reproduction tool.
func (sc *Scenario) ReplayElastic(ctx context.Context, assignment []int, log *dist.MembershipLog, checkpointEvery float64) (*emu.Result, error) {
	cfg, err := sc.ElasticReplayConfig(assignment, log)
	if err != nil {
		return nil, err
	}
	if len(log.Losses) > 0 {
		// Keep the scenario's straggler/degradation schedule alongside the
		// replayed fail-stops — it shapes the cost model the live run paid.
		sched := &faults.Schedule{Crashes: append([]faults.Crash(nil), log.Losses...)}
		if sc.Faults != nil {
			sched.Stragglers = append(sched.Stragglers, sc.Faults.Stragglers...)
			sched.Degradations = append(sched.Degradations, sc.Faults.Degradations...)
		}
		cfg.Faults = sched
		cfg.OnCrash = sc.lossRemap()
		cfg.CheckpointEvery = checkpointEvery
	}
	return sc.start(ctx, cfg, sc.newTelemetry(), nil)
}

// ElasticReplayConfig builds the in-process configuration that reproduces an
// elastic distributed run from its membership log — the equivalence oracle
// tests diff against, and a user's offline replay tool.
func (sc *Scenario) ElasticReplayConfig(assignment []int, log *dist.MembershipLog) (emu.Config, error) {
	cfg, err := sc.emuConfig(assignment)
	if err != nil {
		return emu.Config{}, err
	}
	for _, r := range log.Resizes {
		cfg.Elastic = append(cfg.Elastic, emu.Resize{At: r.At, Engines: r.Engines, Assignment: r.Assignment})
	}
	return cfg, nil
}
