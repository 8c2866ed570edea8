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

// ResilientOutcome reports a resilient run.
type ResilientOutcome struct {
	Approach mapping.Approach
	// InitialAssignment is the pre-failure mapping.
	InitialAssignment []int
	// FinalAssignment is the mapping after the last recovery (equal to
	// InitialAssignment if nothing crashed).
	FinalAssignment []int
	// Result is the emulation result; Result.Recovery carries downtime,
	// re-emulated events, migrations, and pre/post-failure imbalance.
	Result *emu.Result
	// ProfileRun is the profiling pre-run (PROFILE approach only).
	ProfileRun *emu.Result
}

// Recovery returns the fault-handling summary (nil for crash-free runs).
func (o *ResilientOutcome) Recovery() *emu.Recovery { return o.Result.Recovery }

// NaiveRecovery dumps every node of the dead engine onto the least-loaded
// survivor — the fallback RunResilient's remapping is measured against.
func NaiveRecovery(f emu.EngineFailure) []int {
	target := -1
	for e, ok := range f.Alive {
		if !ok {
			continue
		}
		if target < 0 || f.Loads[e] < f.Loads[target] ||
			(f.Loads[e] == f.Loads[target] && e < target) {
			target = e
		}
	}
	next := append([]int(nil), f.Assignment...)
	for v, e := range next {
		if e == f.Engine {
			next[v] = target
		}
	}
	return next
}

// RunResilient executes the scenario under a fault schedule: partition with
// the chosen approach, emulate with fault injection, and on each engine
// crash recover by remapping the dead engine's virtual nodes across the
// survivors (or naively, when opts.Naive). Cancellation of ctx is observed
// at window barriers.
func (sc *Scenario) RunResilient(ctx context.Context, opts FaultOptions) (*ResilientOutcome, error) {
	if opts.Schedule == nil {
		return nil, fmt.Errorf("core: RunResilient needs a fault schedule (use Run for fault-free execution)")
	}
	approach := opts.Approach
	if approach == "" {
		approach = mapping.Top
	}
	part, profRun, err := sc.Partition(ctx, approach)
	if err != nil {
		return nil, err
	}
	cfg, err := sc.emuConfig(part)
	if err != nil {
		return nil, err
	}
	cfg.Faults = opts.Schedule
	cfg.CheckpointEvery = opts.CheckpointEvery
	cfg.MigrationCost = opts.MigrationCost
	cfg.OnCrash = sc.survivorRemap()
	if opts.Naive {
		cfg.OnCrash = func(f emu.EngineFailure) ([]int, error) { return NaiveRecovery(f), nil }
	}

	res, err := sc.start(ctx, cfg, sc.newTelemetry(), nil)
	if err != nil {
		return nil, fmt.Errorf("core: resilient %s on %s: %w", approach, sc.Name, err)
	}
	return &ResilientOutcome{
		Approach:          approach,
		InitialAssignment: part,
		FinalAssignment:   res.FinalAssignment,
		Result:            res,
		ProfileRun:        profRun,
	}, nil
}
