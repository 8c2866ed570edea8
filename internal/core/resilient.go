package core

import (
	"context"
	"fmt"

	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/mapping"
)

// Fault-tolerant execution — the robustness counterpart of the paper's §6
// remapping conclusion: a real 24-node cluster loses and degrades engine
// nodes mid-run, and a partition that was balanced for k engines is neither
// valid nor balanced for the k-1 that survive a crash. RunResilient drives
// the emulator with a deterministic fault schedule; when an engine dies, the
// emulator rolls back to its last barrier checkpoint and asks this layer for
// a recovery assignment, which reuses the same mapping/partition machinery
// as dynamic remapping — with reduced k and the dynamic-remap migration-cost
// model pricing every node that changes engines.

// FaultOptions configures a resilient run.
type FaultOptions struct {
	// Schedule is the deterministic fault schedule. Required (it may be
	// crash-free: stragglers and degradations alone need no recovery).
	Schedule *faults.Schedule
	// CheckpointEvery is the barrier-checkpoint interval in virtual seconds
	// (default emu.DefaultCheckpointEvery).
	CheckpointEvery float64
	// MigrationCost is the modeled stall per migrated node (default
	// DefaultMigrationCost, shared with RunDynamic).
	MigrationCost float64
	// Approach selects the initial mapping (default TOP; PROFILE runs its
	// profiling pre-run as usual).
	Approach mapping.Approach
	// Naive disables partitioner-based recovery: the dead engine's nodes
	// are dumped onto the least-loaded survivor wholesale. It exists as the
	// baseline that remapping must beat.
	Naive bool
}

// NaiveRecovery dumps every node of the dead engine onto the least-loaded
// surviving member — the fallback RunResilient's remapping is measured against.
func NaiveRecovery(c emu.MembershipChange) ([]int, error) {
	if len(c.Engines) == 0 {
		return nil, fmt.Errorf("core: engine %d was the last one standing", c.Dead)
	}
	target := c.Engines[0]
	for _, e := range c.Engines[1:] {
		if c.Loads[e] < c.Loads[target] {
			target = e
		}
	}
	next := append([]int(nil), c.Previous...)
	for v, e := range next {
		if e == c.Dead {
			next[v] = target
		}
	}
	return next, nil
}

// RunResilient executes the scenario under a fault schedule: partition with
// the chosen approach, emulate with fault injection, and on each engine
// crash recover by remapping the dead engine's virtual nodes across the
// survivors (or naively, when opts.Naive). The Outcome's Assignment is the
// pre-failure mapping, Result.FinalAssignment the one after the last recovery.
// Cancellation of ctx is observed at window barriers.
func (sc *Scenario) RunResilient(ctx context.Context, opts FaultOptions) (*Outcome, error) {
	if opts.Schedule == nil {
		return nil, fmt.Errorf("core: RunResilient needs a fault schedule (use Run for fault-free execution)")
	}
	approach := opts.Approach
	if approach == "" {
		approach = mapping.Top
	}
	return sc.run(ctx, approach, func(cfg emu.Config) (*emu.Result, error) {
		cfg.Faults = opts.Schedule
		cfg.CheckpointEvery = opts.CheckpointEvery
		cfg.MigrationCost = opts.MigrationCost
		cfg.OnMembership = sc.remapOnto
		if opts.Naive {
			cfg.OnMembership = NaiveRecovery
		}
		res, err := sc.start(ctx, cfg, sc.newTelemetry(), nil)
		if err != nil {
			return nil, fmt.Errorf("core: resilient %s on %s: %w", approach, sc.Name, err)
		}
		return res, nil
	})
}
