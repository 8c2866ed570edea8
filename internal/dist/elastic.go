package dist

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/obs"
)

// Elastic membership: the coordinator's window loop (coordinator.go) admits
// workers joining a running emulation, releases workers asking to drain, and
// fail-stops workers that go silent — all without giving up the
// byte-identical-results guarantee. Engines never move between workers; the
// kernel's engine count is the capacity, and RunElastic deals worker slot s
// the fixed block of EnginesPerWorker engines starting at
// s*EnginesPerWorker. A join activates a block, a drain deactivates one, and
// every membership change repartitions the virtual nodes over the new active
// set at a checkpoint-cadence barrier via the EXPORT/INSTALL protocol (see
// emu.DistMerge.Resize). The applied changes are returned as a MembershipLog
// whose ReplayConfig reproduces the run in-process, bit for bit.

// ElasticOptions tunes an elastic coordinator run.
type ElasticOptions struct {
	Options
	// Joins delivers connections of workers asking to join mid-run. They are
	// handshaken as they arrive and installed at the next checkpoint-cadence
	// barrier. Nil means no joins.
	Joins <-chan Conn
	// HeartbeatInterval probes silent workers with PING during every
	// coordinator wait; HeartbeatMisses consecutive unanswered intervals
	// declare the worker lost without waiting out the full StepTimeout.
	// <= 0 disables probing (losses then surface at StepTimeout).
	HeartbeatInterval time.Duration
	// HeartbeatMisses is the consecutive-miss threshold (default 3).
	HeartbeatMisses int
	// EnginesPerWorker is the engine block size per worker slot (default 1).
	// NumEngines must be a multiple of it.
	EnginesPerWorker int
	// OnResize computes the post-change node→engine assignment for every
	// join and drain. Required. It is the policy type RunSpec.OnWorkerLoss
	// takes too (core passes one function to both); the two stay apart so a
	// run can repartition on churn and still treat a lost worker as fatal.
	OnResize emu.MembershipPolicy
}

// MembershipLog records what the run actually did: the applied membership
// changes, — when the run degraded — the engine fail-stops the lost worker
// mapped to, and the checkpoint cadence both happened under. ReplayConfig
// turns it back into the in-process run that reproduces the result.
type MembershipLog struct {
	Resizes []emu.AppliedResize
	Losses  []faults.Crash
	// CheckpointEvery is the run's Options.CheckpointEvery: it positions the
	// cadence barriers the loss replay charges its crashes from.
	CheckpointEvery float64
}

// ReplayConfig is the one log → configuration step, shared by the
// coordinator's own worker-loss fallback and offline replays
// (the core.Replay run option): base — the configuration the run started from
// — with the applied resizes as its Elastic schedule and the recorded losses as
// engine fail-stops beside base's own straggler/degradation schedule (it shapes
// the cost model the live run paid), recovered through policy at the run's
// checkpoint cadence.
func (l *MembershipLog) ReplayConfig(base emu.Config, policy emu.MembershipPolicy) emu.Config {
	for _, r := range l.Resizes {
		base.Elastic = append(base.Elastic, emu.Resize{At: r.At, Engines: r.Engines, Assignment: r.Assignment})
	}
	if len(l.Losses) > 0 {
		var sched faults.Schedule
		if base.Faults != nil {
			sched = *base.Faults
		}
		sched.Crashes = append([]faults.Crash(nil), l.Losses...)
		base.Faults, base.OnMembership = &sched, policy
	}
	base.CheckpointEvery = l.CheckpointEvery
	return base
}

// RunElastic drives one distributed run with elastic membership. workers are
// the initial members (slot w for worker w); opt.Joins feeds mid-run
// joiners; workers leave gracefully via DRAIN or abruptly by dying — an
// abrupt loss degrades to the in-process recovery replay exactly as Run
// does, with the membership changes applied so far replayed first.
//
// The returned Result is byte-identical to emu.Run of the same scenario
// with Config.Elastic set to the returned MembershipLog.Resizes.
func RunElastic(ctx context.Context, spec *RunSpec, workers []Conn, opt ElasticOptions) (*emu.Result, *MembershipLog, error) {
	if opt.EnginesPerWorker <= 0 {
		opt.EnginesPerWorker = 1
	}
	if opt.OnResize == nil {
		return nil, nil, fmt.Errorf("dist: elastic run needs an OnResize policy")
	}
	if err := checkSpec(spec, workers, opt.Options); err != nil {
		return nil, nil, err
	}
	q := opt.EnginesPerWorker
	n := spec.Cfg.NumEngines
	if n%q != 0 {
		return nil, nil, fmt.Errorf("dist: %d engines not divisible into blocks of %d", n, q)
	}
	if len(workers) > n/q {
		return nil, nil, fmt.Errorf("dist: %d workers for %d slots of %d engines", len(workers), n/q, q)
	}
	for v, eng := range spec.Cfg.Assignment {
		if eng >= len(workers)*q {
			return nil, nil, fmt.Errorf("dist: node %d assigned to engine %d outside the initial %d-worker membership",
				v, eng, len(workers))
		}
	}
	slots := make([][]int, n/q)
	for e := 0; e < n; e++ {
		slots[e/q] = append(slots[e/q], e)
	}
	return drive(ctx, spec, workers, slots, &opt)
}

// admitJoins handshakes joiners as they arrive, one at a time, onto the
// lowest free slot; a joiner that fails its handshake (or arrives with no
// free slot) is rejected without touching the run.
func (s *coordinator) admitJoins() {
	reject := func(conn Conn, reason string) {
		s.opt.logf("dist: rejecting joiner: %s", reason)
		abortConn(conn, reason)
	}
	for s.opt.Joins != nil {
		select {
		case conn, ok := <-s.opt.Joins:
			if !ok {
				s.opt.Joins = nil
				return
			}
			slot := 0
			for slot < len(s.bySlot) && s.bySlot[slot] != nil {
				slot++
			}
			if slot == len(s.bySlot) {
				reject(conn, "no free engine slot")
				continue
			}
			m := &member{conn: conn, slot: slot, engines: s.slotEngines[slot]}
			s.bySlot[slot] = m // seated first: its DRAIN may land mid-handshake
			err := s.hello(m)
			if err == nil {
				err = s.ready(m)
			}
			if err != nil {
				s.bySlot[slot] = nil
				reject(conn, err.Error())
				continue
			}
			s.opt.logf("dist: joiner admitted on slot %d (engines %v), installing at next barrier", slot, m.engines)
			s.pending = append(s.pending, m)
		default:
			return
		}
	}
}

// resizeBarrier applies the pending membership change at barrier time end:
// held events are delivered to their current owners (so exports capture the
// post-merge state, as the in-process checkpoint does), every member's state
// is exported, the new assignment is computed and installed, drained members
// are released, and joiners become members. Returns the new window width.
func (s *coordinator) resizeBarrier(end float64, deliver func() error) (float64, error) {
	opt, merge := s.opt, s.merge

	// The held outbox goes to the OLD owners first; the vote replies are
	// meaningless mid-resize and are discarded.
	if err := deliver(); err != nil {
		return 0, err
	}
	for _, m := range s.members {
		if _, err := s.step(m, MsgVote); err != nil {
			return 0, err
		}
	}

	// Export every current member, draining ones included — their state
	// must land somewhere before they leave.
	exports, err := s.pullExports(MsgExport, nil, MsgExport)
	if err != nil {
		return 0, err
	}

	// The new membership: continuing members keep their admission order,
	// joiners append after them.
	var continuing, leaving []*member
	for _, m := range s.members {
		if m.draining {
			leaving = append(leaving, m)
		} else {
			continuing = append(continuing, m)
		}
	}
	continuing = append(continuing, s.pending...)
	if len(continuing) == 0 {
		return 0, fmt.Errorf("dist: every worker drained — no membership left at t=%g", end)
	}
	groups := make([][]int, len(continuing))
	for i, m := range continuing {
		groups[i] = m.engines
	}
	installs, newL, err := merge.Resize(end, exports, groups, opt.OnResize)
	if err != nil {
		return 0, err
	}

	for i, m := range continuing {
		if err := s.send(m, MsgInstall, EncodeElasticInstall(installs[i])); err != nil {
			return 0, err
		}
	}
	for _, m := range continuing {
		f, err := s.step(m, MsgInstallAck)
		if err != nil {
			return 0, err
		}
		ack, err := DecodeInstallAck(f.Payload)
		if err != nil {
			return 0, &workerLost{worker: m.slot, err: err}
		}
		if math.Float64bits(ack.Lookahead) != math.Float64bits(newL) {
			return 0, fmt.Errorf("dist: worker %d acked lookahead %g, coordinator computed %g — builds disagree",
				m.slot, ack.Lookahead, newL)
		}
	}

	// Release the drained members; their state now lives on the continuing
	// ones. A send failure here is harmless — they are already out.
	for _, m := range leaving {
		_ = m.conn.Send(Frame{Type: MsgBye})
		_ = m.conn.Close()
		s.bySlot[m.slot] = nil
	}

	// Churn accounting: each joiner and leaver is recorded against the first
	// engine of its slot, mirroring the in-process elastic event stream.
	for _, m := range s.pending {
		s.recordChurn(obs.Event{Kind: obs.EventJoin, Time: end, LP: m.engines[0], Value: 1})
	}
	for _, m := range leaving {
		s.recordChurn(obs.Event{Kind: obs.EventDrain, Time: end, LP: m.engines[0], Value: 1})
	}
	if s.spec.Health != nil {
		s.spec.Health.SetWorkers(len(continuing))
	}

	s.members = continuing
	s.pending = nil
	s.lastResizeAt = end
	s.log.Resizes = merge.AppliedResizes()
	opt.logf("dist: membership now %d workers at t=%g, lookahead %g", len(s.members), end, newL)
	return newL, nil
}
