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
// RemapOnto-driven crash recovery as RunResilient: the scenario re-runs
// in-process with the lost worker's engines fail-stopped, and
// Result.Recovery reports the remap.
func (sc *Scenario) RunDistributed(ctx context.Context, a mapping.Approach, workers []dist.Conn, opt dist.Options) (*Outcome, error) {
	return sc.run(ctx, a, func(cfg emu.Config) (*emu.Result, error) {
		res, err := dist.Run(ctx, sc.distSpec(ctx, cfg), workers, opt)
		if err != nil {
			return nil, fmt.Errorf("core: distributed %s on %s: %w", a, sc.Name, err)
		}
		return res, nil
	})
}

// distSpec is the coordinator's description of a run of cfg, a lost worker
// recovered by the scenario's one membership policy.
func (sc *Scenario) distSpec(ctx context.Context, cfg emu.Config) *dist.RunSpec {
	return &dist.RunSpec{
		Cfg:          cfg,
		Routing:      sc.Routing,
		Telemetry:    sc.newTelemetry(),
		Trace:        sc.Trace,
		Health:       sc.ClusterHealth,
		EmuOpts:      sc.runOptions(ctx),
		OnWorkerLoss: sc.remapOnto,
	}
}

// remapOnto is the scenario's one membership policy — behind an injected
// crash (RunResilient), a lost worker (RunDistributed, RunElastic), a join or
// drain (RunElastic) and their replays: the network is repartitioned onto the
// engine set the run continues on, starting from the previous assignment.
func (sc *Scenario) remapOnto(c emu.MembershipChange) ([]int, error) {
	in, err := sc.mappingInput()
	if err != nil {
		return nil, err
	}
	next, _, err := mapping.RemapOnto(in, c.Previous, c.Engines, c.Loads)
	return next, err
}
