package emu

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Elastic membership: the engine set of a run changes while it executes. A
// Resize pauses the run at the next window barrier at or after At,
// repartitions the virtual nodes onto the new engine set (explicitly or via
// Config.OnMembership), migrates pending events and accounting to the new owners,
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
	// (every value drawn from Engines). When nil, Config.OnMembership decides.
	Assignment []int
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

// repartition is the one policy call behind every membership change — a crash
// (recoverCrash), an in-process resize (applyResize) and a distributed one
// (DistMerge.Resize): policy is handed the change c, completed with the
// assignment in effect and the NetFlow collector, and its answer must cover
// the network using only engines member flags. The telemetry collector folds
// first, while the traffic since its last fold is still binned by the
// assignment it ran under, so a policy reading the live matrix sees it
// current.
func (e *emulation) repartition(policy MembershipPolicy, c MembershipChange, member []bool) ([]int, error) {
	e.tel.Fold(e)
	c.Engines = append([]int(nil), c.Engines...)
	c.Previous = append([]int(nil), e.assignment...)
	c.NetFlow = e.collector
	next, err := policy(c)
	if err != nil {
		return nil, fmt.Errorf("emu: membership policy at t=%g: %w", c.At, err)
	}
	if len(next) != e.nw.NumNodes() {
		return nil, fmt.Errorf("emu: policy assignment covers %d nodes, network has %d", len(next), e.nw.NumNodes())
	}
	for v, eng := range next {
		if eng < 0 || eng >= e.cfg.NumEngines || !member[eng] {
			return nil, fmt.Errorf("emu: policy assigned node %d to engine %d, not in its engine set", v, eng)
		}
	}
	return next, nil
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
// time at, inside the barrier step, and makes the barrier the mark a later
// crash is charged from.
func (e *emulation) applyResize(k *des.Kernel[payload], rs *resilience, idx int, at float64) error {
	r := e.cfg.Elastic[idx]
	target := make([]bool, e.cfg.NumEngines)
	for _, eng := range r.Engines {
		if !rs.alive[eng] {
			return fmt.Errorf("emu: elastic resize %d targets crashed engine %d", idx, eng)
		}
		target[eng] = true
	}
	policy := e.cfg.OnMembership
	if r.Assignment != nil {
		policy = func(MembershipChange) ([]int, error) { return r.Assignment, nil }
	}
	newAssign, err := e.repartition(policy,
		MembershipChange{At: at, Engines: r.Engines, Loads: metrics.Floats(k.Stats().Charges)}, target)
	if err != nil {
		return err
	}
	e.resizeTo(at, r.Engines, newAssign)
	rs.mark, rs.markStats = at, k.Stats().Clone()
	return e.regrid(k)
}
