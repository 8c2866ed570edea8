package core

import (
	"context"
	"fmt"

	"repro/internal/dist"
	"repro/internal/emu"
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
	cfg, err := sc.emuConfig(part)
	if err != nil {
		return nil, nil, err
	}
	if opt.OnResize == nil {
		opt.OnResize = sc.remapOnto
	}
	res, log, err := dist.RunElastic(ctx, sc.distSpec(ctx, cfg), workers, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("core: elastic run on %s: %w", sc.Name, err)
	}
	return &Outcome{Approach: mapping.Top, Assignment: part, Result: res}, log, nil
}

// ReplayElastic re-runs an elastic distributed run in-process from its
// membership log, which carries everything the replay needs: the applied
// resizes, the recorded worker losses (replayed as engine fail-stops under the
// same repartitioning policy the live run used) and the checkpoint cadence.
// This is the equivalence oracle the tests diff against, and an offline
// reproduction tool.
func (sc *Scenario) ReplayElastic(ctx context.Context, assignment []int, log *dist.MembershipLog) (*emu.Result, error) {
	cfg, err := sc.emuConfig(assignment)
	if err != nil {
		return nil, err
	}
	return sc.start(ctx, log.ReplayConfig(cfg, sc.remapOnto), sc.newTelemetry(), nil)
}
