package emu

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/obs"
)

// Elastic membership: the engine set of a run changes while it executes. A
// Resize pauses the run at the next window barrier at or after At,
// repartitions the virtual nodes onto the new engine set (explicitly or via
// Config.OnResize), migrates pending events and accounting to the new owners,
// and resumes. The kernel's LP count is fixed for a run, so NumEngines is the
// capacity: a resize activates or deactivates engines within it. This
// in-process path is the canonical reference the distributed join/drain
// protocol must match byte-for-byte.

// Resize schedules one membership change.
type Resize struct {
	// At is the virtual time the change is requested; it applies at the
	// first window barrier at or after it.
	At float64
	// Engines is the new active engine set (within [0, NumEngines)).
	Engines []int
	// Assignment optionally fixes the post-resize node→engine assignment
	// (every value drawn from Engines). When nil, Config.OnResize decides.
	Assignment []int
}

// ResizeEvent is the context handed to Config.OnResize.
type ResizeEvent struct {
	// At is the barrier time the resize applies at.
	At float64
	// Engines is the new active engine set.
	Engines []int
	// Previous is the assignment in effect before the resize.
	Previous []int
	// Loads is the cumulative kernel-event charge per engine at the barrier —
	// the load picture a repartitioning policy balances against.
	Loads []float64
}

// AppliedResize records one applied membership change.
type AppliedResize struct {
	// At is the barrier time the resize was applied at.
	At float64
	// Engines is the active engine set after it.
	Engines []int
	// Assignment is the node→engine assignment after it.
	Assignment []int
	// Migrations is the number of nodes that changed engines.
	Migrations int
}

// Membership summarizes elastic engine-set changes over a run.
type Membership struct {
	// Resizes lists the applied changes in order.
	Resizes []AppliedResize
	// Stall is the modeled state-transfer stall charged to AppTime:
	// Migrations × MigrationCost summed over all resizes.
	Stall float64
}

// checkAssignment validates a policy's node→engine assignment for a membership
// change: it must cover the network and use only engines allowed marks.
func (e *emulation) checkAssignment(what string, assignment []int, allowed []bool) error {
	if len(assignment) != e.nw.NumNodes() {
		return fmt.Errorf("emu: %s assignment covers %d nodes, network has %d",
			what, len(assignment), e.nw.NumNodes())
	}
	for v, eng := range assignment {
		if eng < 0 || eng >= e.cfg.NumEngines || !allowed[eng] {
			return fmt.Errorf("emu: %s assigned node %d to engine %d, not in its engine set", what, v, eng)
		}
	}
	return nil
}

// reassign switches the run to a new assignment at barrier time at and
// returns how many nodes changed engines. One migration event per destination
// engine, in engine order, keeps the trace deterministic.
func (e *emulation) reassign(at float64, assignment []int) int {
	migrations := 0
	migTo := make([]int64, e.cfg.NumEngines)
	for v, eng := range assignment {
		if eng != e.assignment[v] {
			migrations++
			migTo[eng]++
		}
	}
	for eng, n := range migTo {
		if n > 0 {
			e.recordEvent(obs.Event{Kind: obs.EventMigration, Time: at, LP: eng, Value: float64(n)})
		}
	}
	e.assignment = append([]int(nil), assignment...)
	return migrations
}

// resizeTo is the membership bookkeeping an in-process resize and the
// distributed coordinator's share, in one order so recorded traces line up:
// the resize event, the migrations, the assignment switch, the log entry and
// the modeled state-transfer stall.
func (e *emulation) resizeTo(at float64, engines, assignment []int) {
	e.recordEvent(obs.Event{Kind: obs.EventResize, Time: at, LP: -1, Value: float64(len(engines))})
	migrations := e.reassign(at, assignment)
	if e.membership == nil {
		e.membership = &Membership{}
	}
	e.membership.Resizes = append(e.membership.Resizes, AppliedResize{
		At:         at,
		Engines:    append([]int(nil), engines...),
		Assignment: append([]int(nil), assignment...),
		Migrations: migrations,
	})
	e.membership.Stall += float64(migrations) * e.cfg.MigrationCost
}

// applyResize repartitions the run onto Elastic[idx]'s engine set at barrier
// time at, inside the barrier step. Unlike crash recovery there is no
// rollback: the state at the barrier is consistent, so the kernel checkpoint
// taken here is both the migration source and the new rollback fence — a
// later crash must not roll back behind a membership change. Restoring it
// under the new assignment moves pending events to their new owners (ownerOf
// keys on flow state, not the captured LP); the kernel's window loop resumes
// on the lookahead of the new cut.
func (e *emulation) applyResize(k *des.Kernel[payload], rs *resilience, idx int, at float64) error {
	r := e.cfg.Elastic[idx]
	target := make([]bool, e.cfg.NumEngines)
	for _, eng := range r.Engines {
		if !rs.alive[eng] {
			return fmt.Errorf("emu: elastic resize %d targets crashed engine %d", idx, eng)
		}
		target[eng] = true
	}
	cp := k.Checkpoint(at)

	newAssign := r.Assignment
	if newAssign == nil {
		var err error
		newAssign, err = e.cfg.OnResize(ResizeEvent{
			At:       at,
			Engines:  append([]int(nil), r.Engines...),
			Previous: append([]int(nil), e.assignment...),
			Loads:    loadsOf(cp.Stats().Charges),
		})
		if err != nil {
			return fmt.Errorf("emu: resize %d at t=%g: %w", idx, at, err)
		}
		if err := e.checkAssignment("resize", newAssign, target); err != nil {
			return err
		}
	}
	e.resizeTo(at, r.Engines, newAssign)
	if err := e.regrid(k, cp); err != nil {
		return err
	}
	rs.last = e.snapshot(cp)
	return nil
}
