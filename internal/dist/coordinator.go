package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/des"
	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// RunSpec is everything the coordinator needs to drive one distributed run.
type RunSpec struct {
	// Cfg is the scenario; it is normalized in place before shipping.
	// Straggler/degradation schedules in Cfg.Faults ship with the spec;
	// crash schedules are rejected (EncodeSpec), and OnMembership must be nil
	// — the policies of a distributed run are OnWorkerLoss and, for an elastic
	// one, ElasticOptions.OnResize.
	Cfg emu.Config
	// Routing tells workers which route-oracle backend to rebuild.
	Routing netgraph.RoutingOptions
	// Telemetry, when non-nil, is the coordinator-side collector the workers'
	// traffic-plane shares merge into (it feeds /metrics and Result.Telemetry
	// exactly as in-process).
	Telemetry *telemetry.Collector
	// EmuOpts carries recorders/stats options for the coordinator's
	// observation plane, as for emu.Run.
	EmuOpts []emu.Option
	// Trace, when non-nil, turns on distributed tracing: workers measure and
	// ship wall-clock spans, and the coordinator merges them with its
	// deterministic modeled spans into this timeline.
	Trace *obs.Timeline
	// Health, when non-nil, receives the live cluster health signal — worker
	// count, per-worker gated windows and critical-path share, window lag,
	// heartbeat RTTs — for the /metrics and /healthz mounts.
	Health *telemetry.ClusterHealth
	// OnWorkerLoss computes the recovery assignment when a worker is lost:
	// the run degrades to the in-process crash-recovery path with the lost
	// worker's engines fail-stopped, and this policy (typically the same
	// RemapOnto policy used for injected faults and resizes) remaps their
	// nodes onto the surviving members. When nil, worker loss is fatal.
	OnWorkerLoss emu.MembershipPolicy
}

// Options tunes the coordinator's protocol timing.
type Options struct {
	// HandshakeTimeout bounds HELLO/READY waits per worker (default 30 s).
	HandshakeTimeout time.Duration
	// StepTimeout bounds every in-run worker response — votes, window
	// reports, exports, final states (default 60 s). A worker silent past it
	// is treated as lost.
	StepTimeout time.Duration
	// CheckpointEvery is the virtual-time cadence at which membership changes
	// apply, and the cadence a worker-loss replay charges its crash from
	// (default emu.DefaultCheckpointEvery).
	CheckpointEvery float64
	// Logf, when set, receives one line per protocol phase.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 30 * time.Second
	}
	if o.StepTimeout <= 0 {
		o.StepTimeout = 60 * time.Second
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = emu.DefaultCheckpointEvery
	}
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// ErrWorkerLost marks a run that lost a worker (transport failure, protocol
// violation, or heartbeat silence). errors.Is(err, ErrWorkerLost) holds on
// every loss-shaped error the coordinator returns.
var ErrWorkerLost = errors.New("worker lost")

// ErrWorkerFault marks a worker-reported simulation error (an ERROR frame: a
// poisoned run, a malformed event). It is deterministic — a fallback replay
// would hit it again — so the coordinator aborts with it instead of
// degrading.
var ErrWorkerFault = errors.New("worker fault")

// workerLost marks a worker conn failure or protocol violation; it triggers
// the degradation path rather than failing the run outright.
type workerLost struct {
	worker int
	err    error
}

func (w *workerLost) Error() string {
	return fmt.Sprintf("dist: worker %d lost: %v", w.worker, w.err)
}
func (w *workerLost) Unwrap() error        { return w.err }
func (w *workerLost) Is(target error) bool { return target == ErrWorkerLost }

// Run drives one distributed run over the given worker connections — the
// elastic loop with a membership that never changes: no joins, no resize
// policy (drain requests are ignored), heartbeat off and every engine live.
// Engines are dealt round-robin (worker w gets engines w, w+W, ...). On
// worker loss the surviving workers are aborted and the scenario re-runs
// in-process with the lost worker's engines fail-stopped at the loss time,
// recovered as in-process crashes — the run completes (Result.Recovery
// reports it) instead of hanging.
//
// The returned Result is byte-identical to emu.Run of the same scenario
// (modulo Kernel.WallTime and the wall-clock parts of Obs — see ResultJSON).
func Run(ctx context.Context, spec *RunSpec, workers []Conn, opt Options) (*emu.Result, error) {
	if err := checkSpec(spec, workers, opt); err != nil {
		return nil, err
	}
	W, n := len(workers), spec.Cfg.NumEngines
	if W > n {
		return nil, fmt.Errorf("dist: %d workers for %d engines (every worker needs at least one)", W, n)
	}
	slots := make([][]int, W)
	for e := 0; e < n; e++ {
		slots[e%W] = append(slots[e%W], e)
	}
	res, _, err := drive(ctx, spec, workers, slots, &ElasticOptions{Options: opt})
	return res, err
}

// checkSpec is the validation every entry point shares; it normalizes
// spec.Cfg in place.
func checkSpec(spec *RunSpec, workers []Conn, opt Options) error {
	if len(workers) == 0 {
		return fmt.Errorf("dist: no workers")
	}
	if v := opt.CheckpointEvery; math.IsNaN(v) || math.IsInf(v, 0) { // defaults would keep it, and no barrier would ever apply
		return fmt.Errorf("%w: %g is no checkpoint interval", emu.ErrBadConfig, v)
	}
	if spec.Cfg.OnMembership != nil {
		return fmt.Errorf("dist: set OnWorkerLoss, not Cfg.OnMembership (policies do not ship)")
	}
	return emu.NormalizeConfig(&spec.Cfg)
}

// member is one worker of the run: a connection seated on a worker slot.
type member struct {
	conn     Conn
	slot     int
	engines  []int
	draining bool
	// rep is the member's window report, overwritten by every WINDOW_DONE.
	rep emu.WindowReport
}

// coordinator is the state of one run. Engines never move between workers:
// slotEngines[s] is the fixed engine set worker slot s owns and ownerOf is its
// inverse, the one table that routes events. Membership is which slots are
// seated: a join seats a free slot, a drain vacates one, and both take effect
// at a checkpoint-cadence barrier (see resizeBarrier).
type coordinator struct {
	spec        *RunSpec
	opt         *ElasticOptions
	slotEngines [][]int
	ownerOf     []int
	log         *MembershipLog
	merge       *emu.DistMerge

	members []*member // active, in admission order
	pending []*member // handshaken joiners awaiting the next barrier
	bySlot  []*member // seated slots: members, pending joiners, handshaking ones

	enc      []byte // the per-window payloads are built here, one Send at a time
	blob     []byte // the encoded spec every worker is assigned
	hash     [32]byte
	initialL float64 // its lookahead, which every handshake must reproduce
	hooks    recvHooks
	hb       *heartbeat

	// grid picks the windows — the kernel's own rule, so the run walks the
	// windows an in-process run would. virtT is the start of the last
	// committed window and lastResizeAt the barrier of the last applied
	// membership change; with the grid's width they place a worker loss in
	// virtual time.
	grid                des.Grid
	virtT, lastResizeAt float64

	// churn (the join, drain and kill events) and live (the initial members'
	// engine count) are what a worker-loss replay, which has no workers, lacks.
	churn []obs.Event
	live  int
}

// drive runs the window loop over the initial workers (worker w seated on
// slot w) and, when a worker is lost, aborts the rest and degrades to the
// in-process recovery replay.
func drive(ctx context.Context, spec *RunSpec, workers []Conn, slots [][]int, opt *ElasticOptions) (*emu.Result, *MembershipLog, error) {
	opt.Options.defaults()
	if opt.HeartbeatMisses <= 0 {
		opt.HeartbeatMisses = 3
	}
	s := &coordinator{
		spec: spec, opt: opt, slotEngines: slots,
		ownerOf: make([]int, spec.Cfg.NumEngines),
		log:     &MembershipLog{CheckpointEvery: opt.CheckpointEvery},
		bySlot:  make([]*member, len(slots)),
	}
	for slot, engines := range slots {
		for _, e := range engines {
			s.ownerOf[e] = slot
		}
	}
	for w, conn := range workers {
		m := &member{conn: conn, slot: w, engines: slots[w]}
		s.members = append(s.members, m)
		s.bySlot[w] = m
	}
	res, err := s.run(ctx)
	if err == nil {
		return res, s.log, nil
	}
	s.abort(err.Error())
	lost, ok := err.(*workerLost)
	if !ok {
		return nil, nil, err
	}
	if spec.OnWorkerLoss == nil {
		return nil, nil, fmt.Errorf("%w (no OnWorkerLoss recovery configured)", lost)
	}
	// The loss maps to the middle of the window in flight: a conservative
	// kernel can only detect a silent peer at the following barrier, exactly
	// as the fault-injection path models it.
	at := s.virtT + s.grid.Lookahead/2
	// The kill reaches external recorders before the replay starts; the
	// replay's own emulation never sees the silent worker.
	misses := 1.0
	if s.hb != nil {
		misses = float64(s.hb.misses)
	}
	s.recordChurn(obs.Event{Kind: obs.EventHeartbeatMiss, Time: at,
		LP: slots[lost.worker][0], Value: misses})
	opt.logf("%v; degrading to in-process recovery replay", lost)
	res, err = s.fallback(lost.worker, at)
	if err != nil {
		return nil, nil, err
	}
	res.Obs.NoteClusterSize(s.live)
	for _, ev := range s.churn {
		res.Obs.NoteEvent(ev)
	}
	return res, s.log, nil
}

// recordChurn records a membership event on the merge and keeps it in churn.
func (s *coordinator) recordChurn(ev obs.Event) {
	s.merge.RecordEvent(ev)
	s.churn = append(s.churn, ev)
}

// emuOpts are the observation-plane options the live merge and the recovery
// replay share.
func (s *coordinator) emuOpts() []emu.Option {
	opts := append([]emu.Option(nil), s.spec.EmuOpts...)
	if s.spec.Telemetry != nil {
		opts = append(opts, emu.WithTelemetry(s.spec.Telemetry))
	}
	if s.spec.Trace != nil {
		opts = append(opts, emu.WithTrace(s.spec.Trace))
	}
	return opts
}

// abortConn tells a worker why it is being dropped, best effort, and hangs up.
func abortConn(c Conn, reason string) {
	_ = c.Send(Frame{Type: MsgAbort, Payload: TextMsg{Text: reason}.Encode()})
	_ = c.Close()
}

func (s *coordinator) abort(reason string) {
	for _, m := range append(s.members, s.pending...) {
		abortConn(m.conn, reason)
	}
	s.members, s.pending = nil, nil
}

func (s *coordinator) send(m *member, t MsgType, payload []byte) error {
	if err := m.conn.Send(Frame{Type: t, Payload: payload}); err != nil {
		return &workerLost{worker: m.slot, err: err}
	}
	return nil
}

func (s *coordinator) sendAll(ms []*member, t MsgType, payload []byte) error {
	for _, m := range ms {
		if err := s.send(m, t, payload); err != nil {
			return err
		}
	}
	return nil
}

// expect waits for m's next protocol frame and requires it to be a want;
// anything else is a protocol violation that loses the worker.
func (s *coordinator) expect(m *member, want MsgType, timeout time.Duration, hb *heartbeat) (Frame, error) {
	f, err := recvHooked(m.conn, m.slot, timeout, hb, s.hooks)
	if err != nil {
		return Frame{}, err
	}
	if f.Type != want {
		return Frame{}, &workerLost{worker: m.slot, err: fmt.Errorf("expected %s, got %s", want, f.Type)}
	}
	return f, nil
}

// step is expect for in-run responses: StepTimeout, with liveness probing.
func (s *coordinator) step(m *member, want MsgType) (Frame, error) {
	return s.expect(m, want, s.opt.StepTimeout, s.hb)
}

// hello is the first handshake phase: m's HELLO is checked and its ASSIGN
// goes out. Every worker — initial or joiner — receives the same original
// spec; a joiner's engines are inactive under the original assignment, so it
// seeds nothing and waits for its INSTALL. Probing is off for the handshake:
// a worker rebuilding its scenario cannot answer a PING.
func (s *coordinator) hello(m *member) error {
	f, err := s.expect(m, MsgHello, s.opt.HandshakeTimeout, nil)
	if err != nil {
		return err
	}
	h, err := DecodeHello(f.Payload)
	if err != nil {
		return &workerLost{worker: m.slot, err: err}
	}
	if h.Version != Version {
		return fmt.Errorf("dist: worker %d speaks protocol %d, this build speaks %d", m.slot, h.Version, Version)
	}
	as := Assign{Version: Version, WorkerID: m.slot, Workers: len(s.slotEngines), Engines: m.engines, Hash: s.hash, Spec: s.blob}
	return s.send(m, MsgAssign, as.Encode())
}

// ready is the second handshake phase: m must have rebuilt the same scenario
// and derived the same lookahead.
func (s *coordinator) ready(m *member) error {
	f, err := s.expect(m, MsgReady, s.opt.HandshakeTimeout, nil)
	if err != nil {
		return err
	}
	r, err := DecodeReady(f.Payload)
	if err != nil {
		return &workerLost{worker: m.slot, err: err}
	}
	if r.Hash != s.hash {
		return fmt.Errorf("dist: worker %d rebuilt a different scenario (spec hash mismatch)", m.slot)
	}
	if math.Float64bits(r.Lookahead) != math.Float64bits(s.initialL) {
		return fmt.Errorf("dist: worker %d derived lookahead %g, coordinator %g — builds disagree",
			m.slot, r.Lookahead, s.initialL)
	}
	return nil
}

// run is the window loop — des.(*Kernel).Run's, stretched over a wire: merged
// events go out, votes come back, a des.Grid picks the global window from the
// earliest vote (the same type Run walks, so alignment, idle skips and the
// EndTime stop are the kernel's), the window executes everywhere, and the
// barrier merges outboxes in (time, source, send order), the order Run's
// direct sends reach each queue in. At a
// checkpoint-cadence barrier with pending joins or drains the membership
// changes instead (resizeBarrier) and the grid is re-gridded on the new
// lookahead — exactly what Kernel.Restore does to Run's grid there.
func (s *coordinator) run(ctx context.Context) (*emu.Result, error) {
	opt := s.opt
	cfg := s.spec.Cfg // normalized by the entry point
	n := cfg.NumEngines

	var err error
	s.blob, err = EncodeSpec(&Spec{Cfg: cfg, Routing: s.spec.Routing,
		Telemetry: s.spec.Telemetry != nil, Tracing: s.spec.Trace != nil})
	if err != nil {
		return nil, err
	}
	s.hash = SpecHash(s.blob)

	opts := s.emuOpts()
	if ctx != nil {
		opts = append(opts, emu.WithContext(ctx))
	}
	merge, err := emu.NewDistMerge(cfg, opts...)
	if err != nil {
		return nil, err
	}
	s.merge = merge
	// Only the initial members' engines are live; the rest of the capacity
	// activates as joiners install.
	var live []int
	for _, m := range s.members {
		live = append(live, m.engines...)
	}
	merge.Activate(live)
	s.live = len(live)
	start := time.Now()
	s.initialL = merge.Lookahead()

	// Slot → engine ownership is fixed for the whole run, so the timeline's
	// worker map covers every slot up front — joiners included.
	tl := merge.Trace()
	if tl != nil {
		for slot, engines := range s.slotEngines {
			tl.Assign(engines, slot)
		}
	}
	health := s.spec.Health
	if health != nil {
		health.SetWorkers(len(s.members))
	}
	if opt.HeartbeatInterval > 0 {
		s.hb = &heartbeat{interval: opt.HeartbeatInterval, misses: opt.HeartbeatMisses}
	}
	// Every coordinator wait may absorb drain requests, worker trace spans
	// (stamped with the sender's slot — it is implied by the connection on
	// the wire — and refused, losing the sender, when they name an engine
	// the run does not have) and heartbeat round trips. A DRAIN can land at
	// any point, even mid-handshake; a run without a resize policy has a
	// fixed membership and ignores it.
	if opt.OnResize != nil {
		s.hooks.onDrain = func(slot int) {
			if m := s.bySlot[slot]; m != nil && !m.draining {
				m.draining = true
				opt.logf("dist: worker slot %d requested drain", slot)
			}
		}
	}
	if tl != nil {
		s.hooks.onSpans = func(w int, spans []obs.Span) error {
			for i := range spans {
				if spans[i].Engine >= n {
					return fmt.Errorf("SPANS span for engine %d, outside [-1,%d)", spans[i].Engine, n)
				}
				spans[i].Worker = w
			}
			tl.AddWall(spans)
			return nil
		}
	}
	if health != nil {
		s.hooks.onRTT = func(w int, rtt time.Duration) { health.ObserveRTT(w, rtt) }
	}

	// The initial members handshake in two phases — ASSIGN everyone, then
	// collect every READY — so they rebuild their scenarios concurrently.
	for _, m := range s.members {
		if err := s.hello(m); err != nil {
			return nil, err
		}
	}
	for _, m := range s.members {
		if err := s.ready(m); err != nil {
			return nil, err
		}
	}
	opt.logf("dist: %d workers ready on %d slots, %d engines, lookahead %g",
		len(s.members), len(s.slotEngines), n, s.initialL)

	s.grid = des.Grid{Lookahead: s.initialL, EndTime: cfg.EndTime}
	outbox := []emu.WireEvent(nil) // globally sorted, from the last barrier
	nextCkpt := opt.CheckpointEvery
	perSlot := make([][]emu.WireEvent, len(s.slotEngines))
	reports := make([]*emu.WindowReport, 0, len(s.slotEngines))

	// deliver hands the previous barrier's events out: each member gets the
	// subsequence destined to its engines, in global merge order — the per-LP
	// sequence streams come out identical to in-process.
	deliver := func() error {
		for slot := range perSlot {
			perSlot[slot] = perSlot[slot][:0]
		}
		for _, ev := range outbox {
			slot := s.ownerOf[ev.Dst]
			if s.bySlot[slot] == nil {
				return fmt.Errorf("dist: event for engine %d routed to empty slot %d", ev.Dst, slot)
			}
			perSlot[slot] = append(perSlot[slot], ev)
		}
		for _, m := range s.members {
			s.enc = EncodeEvents(s.enc[:0], perSlot[m.slot])
			if err := s.send(m, MsgEvents, s.enc); err != nil {
				return err
			}
		}
		outbox = outbox[:0]
		return nil
	}

	for {
		s.admitJoins()
		if err := deliver(); err != nil {
			return nil, err
		}
		minT, has := 0.0, false
		for _, m := range s.members {
			f, err := s.step(m, MsgVote)
			if err != nil {
				return nil, err
			}
			v, err := DecodeVote(f.Payload)
			if err != nil {
				return nil, &workerLost{worker: m.slot, err: err}
			}
			if v.Has && (!has || v.Time < minT) {
				minT, has = v.Time, true
			}
		}
		T, end, skipped, ok := s.grid.Next(minT, has)
		if !ok {
			break
		}

		s.enc = Window{Start: T, End: end}.Append(s.enc[:0])
		if err := s.sendAll(s.members, MsgWindow, s.enc); err != nil {
			return nil, err
		}
		reports = reports[:0]
		for _, m := range s.members {
			f, err := s.step(m, MsgWindowDone)
			if err != nil {
				return nil, err
			}
			rep := &m.rep
			if err := DecodeWindowDone(f.Payload, rep); err != nil {
				return nil, &workerLost{worker: m.slot, err: err}
			}
			// A frame is outside input: one whose outbox or telemetry share
			// would index past the run's arrays, or whose share claims
			// engines other than its sender's, loses its sender instead of
			// reaching the merge.
			err = merge.CheckReport(end, rep)
			if err == nil && rep.Telemetry != nil && !slices.Equal(rep.Telemetry.Engines, m.engines) {
				err = fmt.Errorf("telemetry share claims engines %v, the worker holds %v", rep.Telemetry.Engines, m.engines)
			}
			if err != nil {
				return nil, &workerLost{worker: m.slot, err: err}
			}
			reports = append(reports, rep)
			outbox = append(outbox, rep.Outbox...)
		}
		emu.SortWire(outbox)
		// The commit is where the window is observed — cancellation included.
		ws, err := merge.CommitWindow(T, end, skipped, reports)
		if err != nil {
			return nil, err
		}
		if health != nil && tl != nil {
			health.ObserveWindow(ws.Worker, ws.Lag)
			health.SetAttribution(tl.Health())
		}
		s.virtT = T

		if end >= nextCkpt {
			s.admitJoins() // a join raced the window: fold it into this barrier
			changing := len(s.pending) > 0
			for _, m := range s.members {
				changing = changing || m.draining
			}
			if changing {
				L, err := s.resizeBarrier(end, deliver)
				if err != nil {
					return nil, err
				}
				s.grid.Regrid(L)
				tl.Regrid(L)
			}
			nextCkpt = emu.NextCheckpoint(end, opt.CheckpointEvery)
		}
	}

	// Finish: final exports from the members, BYE everyone (members and any
	// joiners still waiting for a barrier that never came).
	finals, err := s.pullExports(MsgFinish, nil, MsgState)
	if err != nil {
		return nil, err
	}
	if err := s.sendAll(append(s.members, s.pending...), MsgBye, nil); err != nil {
		return nil, err
	}
	opt.logf("dist: run complete, merging %d final states", len(finals))
	return merge.Finalize(finals, time.Since(start))
}

// pullExports sends every member the ask frame and collects the barrier state
// each answers with (a reply frame): EXPORT at a membership barrier, FINISH →
// STATE at the end of the run. An export is outside input and is measured as it
// is received — it must decode, claim exactly its sender's engines and fit the
// run (emu.DistMerge.CheckExport, telemetry share included) — so one that does
// not loses its sender instead of reaching the merge.
func (s *coordinator) pullExports(ask MsgType, payload []byte, reply MsgType) ([]*emu.ElasticExport, error) {
	if err := s.sendAll(s.members, ask, payload); err != nil {
		return nil, err
	}
	exports := make([]*emu.ElasticExport, 0, len(s.members))
	for _, m := range s.members {
		f, err := s.step(m, reply)
		if err != nil {
			return nil, err
		}
		ex, err := DecodeElasticExport(f.Payload)
		if err == nil && !slices.Equal(ex.Engines, m.engines) {
			err = fmt.Errorf("%s claims engines %v, the worker holds %v", reply, ex.Engines, m.engines)
		}
		if err == nil {
			err = s.merge.CheckExport(ex)
		}
		if err != nil {
			return nil, &workerLost{worker: m.slot, err: err}
		}
		exports = append(exports, ex)
	}
	return exports, nil
}

// fallback replays the scenario in-process from the membership log: the
// changes applied so far re-apply through Config.Elastic, and the lost worker's
// engines, recorded as fail-stops at the loss instant, are recovered as
// in-process crashes: a membership change at the detection barrier plus a
// charge.
func (s *coordinator) fallback(worker int, at float64) (*emu.Result, error) {
	if len(s.log.Resizes) > 0 && at <= s.lastResizeAt {
		// The loss raced a membership barrier: the crash must land after the
		// resize it cannot undo.
		at = s.lastResizeAt + s.grid.Lookahead/4
	}
	if at <= 0 {
		// Loss before the first window (handshake, spec shipping): any
		// positive instant is detected at the first barrier.
		at = math.SmallestNonzeroFloat64
	}
	for _, e := range s.slotEngines[worker] {
		s.log.Losses = append(s.log.Losses, faults.Crash{Engine: e, At: at})
	}
	if s.spec.Trace != nil {
		// The replay re-executes every window from zero in-process; the
		// partial distributed timeline would double-count them.
		s.spec.Trace.Reset()
	}
	return emu.Run(s.log.ReplayConfig(s.spec.Cfg, s.spec.OnWorkerLoss), s.emuOpts()...)
}

// heartbeat configures liveness probing during coordinator waits: every
// interval without a frame, a PING goes out; misses consecutive unanswered
// intervals declare the worker lost without waiting out the full timeout.
type heartbeat struct {
	interval time.Duration
	misses   int
}

// recvHooks routes the out-of-band frames a coordinator wait may absorb:
// drain requests, worker trace spans, and measured PING→PONG round trips.
// Nil hooks drop the corresponding signal (spans still decode, so protocol
// corruption surfaces even when tracing output is unused).
type recvHooks struct {
	onDrain func(w int)
	onSpans func(w int, spans []obs.Span) error
	onRTT   func(w int, rtt time.Duration)
}

func recvHooked(conn Conn, w int, timeout time.Duration, hb *heartbeat, hooks recvHooks) (Frame, error) {
	deadline := time.Now().Add(timeout)
	missed := 0
	var lastPing time.Time
	for {
		slice := time.Until(deadline)
		if slice <= 0 {
			return Frame{}, &workerLost{worker: w, err: fmt.Errorf("no response within %v", timeout)}
		}
		if hb != nil && hb.interval > 0 && slice > hb.interval {
			slice = hb.interval
		}
		f, err := conn.Recv(slice)
		if err != nil {
			if isTimeout(err) && time.Now().Before(deadline) {
				if hb == nil || hb.interval <= 0 {
					continue
				}
				missed++
				if missed >= hb.misses {
					return Frame{}, &workerLost{worker: w,
						err: fmt.Errorf("no heartbeat in %d×%v", missed, hb.interval)}
				}
				lastPing = time.Now()
				if err := conn.Send(Frame{Type: MsgPing}); err != nil {
					return Frame{}, &workerLost{worker: w, err: err}
				}
				continue
			}
			return Frame{}, &workerLost{worker: w, err: err}
		}
		switch f.Type {
		case MsgPong:
			missed = 0
			// A pong not answering our ping (a reordered or duplicated frame
			// under chaos transports) carries no timing signal.
			if hooks.onRTT != nil && !lastPing.IsZero() {
				hooks.onRTT(w, time.Since(lastPing))
				lastPing = time.Time{}
			}
			continue
		case MsgSpans:
			missed = 0
			spans, err := DecodeSpans(f.Payload)
			if err != nil {
				return Frame{}, &workerLost{worker: w, err: err}
			}
			if hooks.onSpans != nil {
				if err := hooks.onSpans(w, spans); err != nil {
					return Frame{}, &workerLost{worker: w, err: err}
				}
			}
			continue
		case MsgDrain:
			missed = 0
			if hooks.onDrain != nil {
				hooks.onDrain(w)
			}
			continue
		case MsgError:
			m, _ := DecodeText(f.Payload)
			return Frame{}, fmt.Errorf("dist: worker %d aborted the run: %w: %s", w, ErrWorkerFault, m.Text)
		}
		return f, nil
	}
}
