package emu

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// DefaultCheckpointEvery is the default virtual-time interval between cadence
// barriers: the barriers membership changes apply at in a distributed run, and
// the point a crash is charged from in-process. 10 s bounds that charge.
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
	// for a resize, at the last cadence barrier for a crash: the load picture
	// the policy balances against.
	Loads []float64
	// Crashed marks an engine failure; the fields below are set only then.
	Crashed bool
	// Dead is the crashed engine and FailedAt the virtual time of its
	// fail-stop.
	Dead     int
	FailedAt float64
	// CheckpointTime is the last cadence barrier, which the crash is charged
	// from.
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
	// Checkpoints is the number of cadence barriers marked, the start of the
	// run included.
	Checkpoints int
	// Downtime is the modeled recovery stall in seconds: per failure, the span
	// between the last cadence barrier and detection, which a real cluster
	// re-emulates from its checkpoint, plus the migration cost of every node
	// that changed engines. Charged to AppTime.
	Downtime float64
	// ReplayedEvents counts the kernel events between the last cadence barrier
	// and each detection: the work a real cluster loses and re-executes.
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

// regrid restores the kernel from a checkpoint of barrier at under the current
// assignment — pending events move to the engines that now own their nodes
// (ownerOf keys on flow state, not the captured LP), and the new cut sets the
// window width — and announces the fresh grid. Called from the barrier step of
// commit, under the kernel's running window loop.
func (e *emulation) regrid(k *des.Kernel[payload], at float64) error {
	lookahead := Lookahead(e.nw, e.assignment, e.cfg.MinLookahead)
	if err := k.Restore(k.Checkpoint(at), lookahead, e.ownerOf); err != nil {
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
	// mark is the time of the latest cadence barrier or resize and markStats
	// the kernel's statistics there: a crash is charged the emulation since.
	mark      float64
	markStats des.Stats
	// postBase is the per-engine charge baseline at the latest recovery, so
	// PostRecoveryImbalance measures only load emulated after it.
	postBase []int64
}

// NextCheckpoint returns the next multiple of every after the barrier at, in
// one step: an every below the float spacing of at rounds to at, so each later
// barrier is a cadence barrier, where a loop of additions would stall.
func NextCheckpoint(at, every float64) float64 {
	return (math.Floor(at/every) + 1) * every
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

// arm installs the barrier step of a resilient run. A crash and a resize are
// both membership changes applied at the barrier that observes them: the
// policy repartitions onto the new engine set, and the kernel is Restored from
// a checkpoint of that barrier under the new assignment, which moves pending
// events to their new owners; the running window loop continues on a fresh
// grid with the new lookahead. A crash is additionally charged the emulation
// since the last cadence barrier (CheckpointEvery), which only records its
// time and the kernel's statistics.
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

	// cadence marks the barrier at time at. The initial one covers crashes
	// before the first cadence barrier.
	cadence := func(at float64) {
		r.mark, r.markStats = at, k.Stats().Clone()
		if r.rec != nil {
			r.rec.Checkpoints++
		}
		e.recordEvent(obs.Event{Kind: obs.EventCheckpoint, Time: at, LP: -1})
	}
	cadence(0)
	nextCkpt := every
	e.barrier = func(ws, we float64) error {
		// Membership changes come first: a window that contains a failure
		// must not become a cadence mark, because the dead engine's work past
		// the failure instant is lost and must be charged. A pending crash and
		// a pending resize are ordered by scheduled time, crash winning ties
		// (the failure instant precedes the barrier that would apply the
		// resize). Every crash the barrier observes before the resize is
		// recovered at it, in scheduled order.
		resizeOK := nextResize < len(elastic) && we >= elastic[nextResize].At
		crashed := false
		for {
			crashIdx, crash, ok := sched.NextCrash(we, handled)
			if !ok || resizeOK && crash.At > elastic[nextResize].At {
				break
			}
			handled[crashIdx] = true
			if err := e.recoverCrash(k, r, crash, we); err != nil {
				return err
			}
			crashed = true
		}
		if crashed {
			return nil
		}
		if resizeOK {
			nextResize++
			return e.applyResize(k, r, nextResize-1, we)
		}
		if we >= nextCkpt {
			cadence(we)
			nextCkpt = NextCheckpoint(we, every)
		}
		return nil
	}
	return r
}

// recoverCrash handles one engine crash detected at barrier we, inside the
// barrier step: it accounts the failure, asks OnMembership for the recovery
// assignment over the surviving members and moves the pending events to their
// new owners, as a resize does. The windows since the last cadence barrier
// are what a real cluster would lose and re-run; they are charged to Downtime
// and ReplayedEvents from the kernel's counters. The kernel's window loop
// resumes from the detection barrier.
func (e *emulation) recoverCrash(k *des.Kernel[payload], r *resilience, crash faults.Crash, we float64) error {
	rec, alive := r.rec, r.alive
	if !alive[crash.Engine] {
		return fmt.Errorf("emu: crash of already-dead engine %d", crash.Engine)
	}
	// The statistics at the detection barrier, window just completed included.
	stats := k.Stats().Clone()
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
	newAssign, err := e.repartition(e.cfg.OnMembership, MembershipChange{
		At:             we,
		Engines:        survivors,
		Loads:          loadsOf(r.markStats.Charges),
		Crashed:        true,
		Dead:           crash.Engine,
		FailedAt:       crash.At,
		CheckpointTime: r.mark,
	}, alive)
	if err != nil {
		return fmt.Errorf("emu: recovery after engine %d crash: %w", crash.Engine, err)
	}
	var replayed int64
	for i, n := range stats.Events {
		replayed += n - r.markStats.Events[i]
	}
	// Rollback.Value is the window count the recovery charges as lost.
	e.recordEvent(obs.Event{Kind: obs.EventRollback, Time: r.mark, LP: crash.Engine,
		Value: float64(stats.Windows - r.markStats.Windows)})

	// Remap and resume. The new assignment cuts a different set of links, so
	// the synchronization window is recomputed.
	migrations := e.reassign(we, newAssign)
	rec.Migrations += migrations
	rec.ReplayedEvents += replayed
	rec.Downtime += (we - r.mark) + float64(migrations)*e.cfg.MigrationCost
	r.postBase = stats.Charges
	return e.regrid(k, we)
}
