package core

import (
	"context"
	"fmt"

	"repro/internal/dist"
	"repro/internal/emu"
	"repro/internal/mapping"
)

// Distributed execution — the deployment shape the paper actually ran on: a
// coordinator process drives worker processes over TCP, each worker hosting a
// share of the simulation engines. The scenario-level work (workload and
// topology generation, partitioning — including the PROFILE pre-run) stays on
// the coordinator; only the engine execution distributes. Results are
// byte-identical to Scenario.Run of the same scenario.

// RunDistributed executes one approach with the engines spread across the
// given worker connections. Worker loss degrades into the same
// RemapOnto-driven crash recovery as RunResilient: the survivors' engines
// re-emulate in-process with the lost worker's engines fail-stopped, and
// Result.Recovery reports the remap.
func (sc *Scenario) RunDistributed(ctx context.Context, a mapping.Approach, workers []dist.Conn, opt dist.Options) (*Outcome, error) {
	part, profRun, err := sc.Partition(ctx, a)
	if err != nil {
		return nil, err
	}
	spec, err := sc.distSpec(ctx, part, sc.survivorRemap())
	if err != nil {
		return nil, err
	}
	res, err := dist.Run(ctx, spec, workers, opt)
	if err != nil {
		return nil, fmt.Errorf("core: distributed %s on %s: %w", a, sc.Name, err)
	}
	return &Outcome{Approach: a, Assignment: part, Result: res, ProfileRun: profRun}, nil
}

// distSpec is the coordinator's description of a run under an assignment.
// RunDistributed and RunElastic differ only in the loss policy they pass.
func (sc *Scenario) distSpec(ctx context.Context, assignment []int, onLoss func(emu.EngineFailure) ([]int, error)) (*dist.RunSpec, error) {
	cfg, err := sc.emuConfig(assignment)
	if err != nil {
		return nil, err
	}
	return &dist.RunSpec{
		Cfg:          cfg,
		Routing:      sc.Routing,
		Telemetry:    sc.newTelemetry(),
		Trace:        sc.Trace,
		Health:       sc.ClusterHealth,
		EmuOpts:      sc.runOptions(ctx),
		OnWorkerLoss: onLoss,
	}, nil
}

// survivorRemap is the crash-recovery policy RunResilient and RunDistributed
// share: the dead engines' nodes are repartitioned over every engine still
// alive.
func (sc *Scenario) survivorRemap() func(emu.EngineFailure) ([]int, error) {
	return func(f emu.EngineFailure) ([]int, error) {
		var survivors []int
		for e, ok := range f.Alive {
			if ok {
				survivors = append(survivors, e)
			}
		}
		return sc.remapOnto(f.Assignment, survivors, f.Loads)
	}
}

// remapOnto repartitions the scenario's network onto an engine set, starting
// from a previous assignment — the one repartitioning step behind crash
// recovery, worker loss and elastic resizes.
func (sc *Scenario) remapOnto(previous, engines []int, loads []float64) ([]int, error) {
	in, err := sc.mappingInput()
	if err != nil {
		return nil, err
	}
	next, _, err := mapping.RemapOnto(in, previous, engines, loads)
	return next, err
}
