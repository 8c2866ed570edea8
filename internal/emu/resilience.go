package emu

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netflow"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// DefaultCheckpointEvery is the default virtual-time interval between
// barrier checkpoints when crash faults are injected: 10 s bounds a rollback
// to a few emulation windows without checkpointing every barrier.
const DefaultCheckpointEvery = 10.0

// DefaultMigrationCost is the modeled stall per migrated virtual node:
// shipping a router's state (routing table, queues) across 100 Mb/s
// Ethernet. Shared with the dynamic-remap prototype in internal/core.
const DefaultMigrationCost = 50e-3

// NormalizedMigrationCost converts a per-node migration stall (seconds) into
// the dimensionless units the game-theoretic repartitioner trades against
// its normalized load and traffic objectives: the fraction of one remapping
// interval a single migration stalls. A non-positive stall falls back to
// DefaultMigrationCost; a non-positive interval disables the penalty.
func NormalizedMigrationCost(stall, interval float64) float64 {
	if stall <= 0 {
		stall = DefaultMigrationCost
	}
	if interval <= 0 {
		return 0
	}
	return stall / interval
}

// MembershipChange describes one change of a run's engine set — an elastic
// resize or an engine crash — to the repartitioning policy, in-process
// (Config.OnMembership) and distributed (the coordinator's resize and
// worker-loss policies) alike.
type MembershipChange struct {
	// At is the barrier the change applies at; for a crash, the barrier at
	// which the death was observed (a conservative kernel only learns of a
	// silent peer at the barrier).
	At float64
	// Engines is the engine set the run continues on: the new active set of a
	// resize; after a crash, the engines hosting nodes that have not crashed,
	// ascending.
	Engines []int
	// Previous is the assignment in effect before the change.
	Previous []int
	// Loads is the cumulative kernel-event charge per engine — at the barrier
	// for a resize, at the rollback checkpoint for a crash: the load picture
	// the policy balances against.
	Loads []float64
	// Crashed marks an engine failure; the fields below are set only then.
	Crashed bool
	// Dead is the crashed engine and FailedAt the virtual time of its
	// fail-stop.
	Dead     int
	FailedAt float64
	// CheckpointTime is the rollback target: the last barrier checkpoint.
	CheckpointTime float64
}

// MembershipPolicy computes the node→engine assignment a run continues on
// after a membership change, using only MembershipChange.Engines.
type MembershipPolicy func(MembershipChange) ([]int, error)

// Recovery summarizes fault handling over a run with crash faults.
type Recovery struct {
	// Failures is the number of engine crashes recovered from.
	Failures int
	// DeadEngines lists the crashed engines in detection order.
	DeadEngines []int
	// Alive flags the engines that survived the whole run.
	Alive []bool
	// Checkpoints is the number of barrier checkpoints taken.
	Checkpoints int
	// Downtime is the modeled recovery stall in seconds: the re-emulated
	// span between checkpoint and detection per failure, plus the migration
	// cost of every node that changed engines. Charged to AppTime.
	Downtime float64
	// ReplayedEvents counts kernel events that had to be re-executed
	// because a rollback discarded them.
	ReplayedEvents int64
	// Migrations counts nodes that changed engines across all recoveries.
	Migrations int
	// PreFailureImbalance is the load imbalance at the first crash, over
	// the engines alive before it.
	PreFailureImbalance float64
	// PostRecoveryImbalance is the imbalance of load accumulated after the
	// last recovery, over the surviving engines — the metric a remapping
	// policy competes on.
	PostRecoveryImbalance float64
}

// rollbackState is everything of the emulator's own that a run mutates and a
// crash recovery rolls back — the link and flow slots (NetState), the
// time-model accumulators filled by commit, and profiling — as one value:
// snapshot stores a clone and restore assigns one. A field added here or to
// NetState is rolled back if clone copies it deeply, and
// TestRollbackStateRollsBack fails until it does.
type rollbackState struct {
	NetState
	collector *netflow.Collector
	series    *metrics.Series

	engineBusy      []float64
	bucketCost      *metrics.Series // modeled compute seconds per bucket and engine
	bucketSync      []float64
	bucketBusyWidth []float64
}

// clone returns a copy that shares no storage with s.
func (s *rollbackState) clone() rollbackState {
	c := *s
	c.NetState = s.NetState.clone()
	c.collector = s.collector.Clone()
	c.series = s.series.Clone()
	c.engineBusy = append([]float64(nil), s.engineBusy...)
	c.bucketCost = s.bucketCost.Clone()
	c.bucketSync = append([]float64(nil), s.bucketSync...)
	c.bucketBusyWidth = append([]float64(nil), s.bucketBusyWidth...)
	return c
}

// checkpointState is a rollback target: a kernel checkpoint with the
// emulator's and the telemetry collector's run state at the same barrier.
type checkpointState struct {
	des *des.Checkpoint[payload]
	run rollbackState
	tel *telemetry.Checkpoint
}

// snapshot captures the emulation state alongside a kernel checkpoint.
func (e *emulation) snapshot(cp *des.Checkpoint[payload]) *checkpointState {
	return &checkpointState{des: cp, run: e.rollbackState.clone(), tel: e.tel.Checkpoint()}
}

// restore rolls the emulation state back to a snapshot. The snapshot itself
// stays pristine: a later crash may roll back to the same checkpoint again.
func (e *emulation) restore(s *checkpointState) {
	e.rollbackState = s.run.clone()
	e.tel.Restore(s.tel)
}

// recordEvent forwards a recovery lifecycle event to the run's recorder, if
// any. All event fields are virtual-time quantities, so faulted traces stay
// deterministic.
func (e *emulation) recordEvent(ev obs.Event) {
	if e.rec != nil {
		e.rec.RecordEvent(ev)
	}
}

// recordRun announces a window grid of the given width to the run's recorders:
// the initial one before the first window, a resumed one right after every
// kernel Restore. The kernel knows nothing of recorders; this is the one
// RunMeta emitter, in-process and distributed.
func (e *emulation) recordRun(lookahead float64, resumed bool) {
	if e.rec != nil {
		e.rec.RecordRun(obs.RunMeta{LPs: e.cfg.NumEngines, Lookahead: lookahead, Resumed: resumed})
	}
}

// regrid restores the kernel from cp under the current assignment — pending
// events move to the engines that now own their nodes, and the new cut sets
// the window width — and announces the fresh grid. Called from the barrier
// step of commit, under the kernel's running window loop.
func (e *emulation) regrid(k *des.Kernel[payload], cp *des.Checkpoint[payload]) error {
	lookahead := Lookahead(e.nw, e.assignment, e.cfg.MinLookahead)
	if err := k.Restore(cp, lookahead, e.ownerOf); err != nil {
		return err
	}
	e.recordRun(lookahead, true)
	return nil
}

// loadsOf is the per-engine load picture a remapping policy balances against:
// the cumulative kernel-event charges, as floats.
func loadsOf(charges []int64) []float64 {
	loads := make([]float64, len(charges))
	for i, c := range charges {
		loads[i] = float64(c)
	}
	return loads
}

// ownerOf returns the engine owning a pending event under the current
// (post-recovery) assignment — how a restore moves a dead engine's events to
// the survivors that inherited its nodes.
func (e *emulation) ownerOf(ev des.Event[payload]) (int, bool) {
	switch p := ev.Data; p.kind {
	case kindFlowStart, kindTCPRound:
		return e.assignment[e.flows[p.flow].src], true
	case kindChunk, kindTailChunk:
		return e.assignment[e.flows[p.flow].path[p.arg]], true
	default:
		return ev.LP, true
	}
}

// resilience is the state a resilient run's barrier step carries between
// barriers.
type resilience struct {
	// alive flags the engines that have not crashed.
	alive []bool
	// rec accumulates crash handling; nil when the schedule has no crashes.
	rec *Recovery
	// last is the rollback target: the latest barrier checkpoint, or the
	// snapshot of the latest resize, behind which no crash may roll back.
	last *checkpointState
	// postBase is the per-engine charge baseline at the latest recovery, so
	// PostRecoveryImbalance measures only load emulated after it.
	postBase []int64
}

// runResilient executes the kernel in one Run, recovering from scheduled
// engine crashes and applying scheduled elastic resizes inside commit's
// barrier step (arm). Without crashes or resizes it is a plain kernel run.
func (e *emulation) runResilient(k *des.Kernel[payload]) (*des.Stats, *Recovery, error) {
	var r *resilience
	if e.cfg.Faults.HasCrashes() || len(e.cfg.Elastic) > 0 {
		r = e.arm(k)
	}
	e.recordRun(e.lookahead, false)
	stats, err := k.Run()
	if err != nil {
		return nil, nil, err
	}
	if r == nil || r.rec == nil {
		return stats, nil, nil
	}
	if r.rec.Failures > 0 {
		post := make([]float64, e.cfg.NumEngines)
		for lp := range post {
			post[lp] = float64(stats.Charges[lp] - r.postBase[lp])
		}
		r.rec.PostRecoveryImbalance = metrics.ImbalanceSubset(post, r.alive)
	}
	r.rec.Alive = r.alive
	return stats, r.rec, nil
}

// arm installs the barrier step of a resilient run: crash detection at the
// window barrier triggers rollback to the last barrier checkpoint, OnMembership
// remapping of the dead engine's nodes and pending events onto survivors, and
// deterministic replay of the lost windows; a resize repartitions onto the new
// engine set from the live (un-rolled-back) state. Either way the kernel is
// Restored under the running window loop, which continues on a fresh grid
// with the new lookahead.
func (e *emulation) arm(k *des.Kernel[payload]) *resilience {
	sched, elastic, every := e.cfg.Faults, e.cfg.Elastic, e.cfg.CheckpointEvery
	r := &resilience{alive: make([]bool, e.cfg.NumEngines)}
	for i := range r.alive {
		r.alive[i] = true
	}
	var handled []bool
	if sched.HasCrashes() {
		handled = make([]bool, len(sched.Crashes))
		r.rec = &Recovery{}
	}
	if len(elastic) > 0 {
		e.membership = &Membership{}
	}
	nextResize := 0 // Elastic is sorted by At: resizes apply in order

	// checkpoint makes the barrier at time at the rollback target. The initial
	// one covers crashes before the first scheduled checkpoint.
	checkpoint := func(at float64) {
		r.last = e.snapshot(k.Checkpoint(at))
		if r.rec != nil {
			r.rec.Checkpoints++
		}
		e.recordEvent(obs.Event{Kind: obs.EventCheckpoint, Time: at, LP: -1})
	}
	checkpoint(0)
	nextCkpt := every
	e.barrier = func(ws, we float64) error {
		// Membership changes come first: a window that contains a failure
		// must not contribute a checkpoint, because the dead engine's state
		// past the failure instant is garbage. A pending crash and a pending
		// resize are ordered by scheduled time, crash winning ties (the
		// failure instant precedes the barrier that would apply the resize).
		crashIdx, crash, crashOK := sched.NextCrash(we, handled)
		resizeOK := nextResize < len(elastic) && we >= elastic[nextResize].At
		if crashOK && (!resizeOK || crash.At <= elastic[nextResize].At) {
			handled[crashIdx] = true
			return e.recoverCrash(k, r, crash, we)
		}
		if resizeOK {
			nextResize++
			return e.applyResize(k, r, nextResize-1, we)
		}
		if we >= nextCkpt {
			checkpoint(we)
			for nextCkpt <= we {
				nextCkpt += every
			}
		}
		return nil
	}
	return r
}

// recoverCrash handles one engine crash detected at barrier we, inside the
// barrier step: it accounts the failure, asks OnMembership for the recovery
// assignment over the surviving members, rolls the emulation and the kernel
// back to the last checkpoint and remaps the dead engine's pending events.
// The kernel's window loop resumes from there.
func (e *emulation) recoverCrash(k *des.Kernel[payload], r *resilience, crash faults.Crash, we float64) error {
	rec, last, alive := r.rec, r.last, r.alive
	if !alive[crash.Engine] {
		return fmt.Errorf("emu: crash of already-dead engine %d", crash.Engine)
	}
	// The statistics at the detection barrier, window just completed included.
	stats := k.Stats()
	if rec.Failures == 0 {
		rec.PreFailureImbalance = metrics.ImbalanceSubset(loadsOf(stats.Charges), alive)
	}
	alive[crash.Engine] = false
	rec.Failures++
	rec.DeadEngines = append(rec.DeadEngines, crash.Engine)
	// Event.Value carries the fail-stop instant; Time is the barrier at
	// which a conservative kernel could first observe the silent peer.
	e.recordEvent(obs.Event{Kind: obs.EventCrash, Time: we, LP: crash.Engine, Value: crash.At})

	// The run continues on its membership — the engines hosting nodes, which
	// leaves out capacity no resize ever activated — minus the dead.
	hosts := make([]bool, len(alive))
	for _, eng := range e.assignment {
		hosts[eng] = true
	}
	var survivors []int
	for eng, ok := range alive {
		if ok && hosts[eng] {
			survivors = append(survivors, eng)
		}
	}
	cpStats := last.des.Stats()
	newAssign, err := e.repartition(e.cfg.OnMembership, MembershipChange{
		At:             we,
		Engines:        survivors,
		Loads:          loadsOf(cpStats.Charges),
		Crashed:        true,
		Dead:           crash.Engine,
		FailedAt:       crash.At,
		CheckpointTime: last.des.Time,
	}, alive)
	if err != nil {
		return fmt.Errorf("emu: recovery after engine %d crash: %w", crash.Engine, err)
	}
	var replayed int64
	for i, n := range stats.Events {
		replayed += n - cpStats.Events[i]
	}
	// Rollback.Value is the window count the recovery discards and must
	// re-execute.
	e.recordEvent(obs.Event{Kind: obs.EventRollback, Time: last.des.Time, LP: crash.Engine,
		Value: float64(stats.Windows - cpStats.Windows)})

	// Roll back, remap, resume. The new assignment cuts a different set of
	// links, so the synchronization window is recomputed.
	e.restore(last)
	migrations := e.reassign(last.des.Time, newAssign)
	rec.Migrations += migrations
	rec.ReplayedEvents += replayed
	rec.Downtime += (we - last.des.Time) + float64(migrations)*e.cfg.MigrationCost
	r.postBase = cpStats.Charges
	return e.regrid(k, last.des)
}
