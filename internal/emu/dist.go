package emu

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Distributed execution split. The in-process Run couples three roles that a
// cluster deployment separates:
//
//   - engine execution: draining per-LP event queues window by window,
//   - the barrier: picking the global window, merging cross-engine events,
//   - observation: the time model, telemetry commit, and result assembly.
//
// DistLocal is the worker half — it executes a subset of engines on the
// shared emulation state built by prepare (every process rebuilds identical
// state from the shipped scenario, so pointers never cross the wire) and
// speaks in WireEvents, flat value records keyed by flow index. DistMerge is
// the coordinator half — it sums the workers' per-window reports into the same
// obs.Window record the in-process kernel fills and hands it to the same
// commit, so AppTime/NetTime, telemetry, traces and the final Result are
// bit-identical to an in-process run of the same scenario. The transport
// between them lives in internal/dist.

// Wire payload kinds. The emulator has exactly three event payloads; anything
// else on the wire is a protocol violation surfaced as ErrBadConfig.
const (
	WireFlowStart = uint8(iota)
	WireTCPRound
	WireChunk
)

// WireEvent is one cross-engine event in transportable form: no pointers,
// exact float bits, flows named by workload index. Src/SrcIdx carry the
// deterministic barrier-merge key (sending engine, send order).
type WireEvent struct {
	Time    float64
	Dst     int32
	Src     int32
	SrcIdx  int32
	Kind    uint8
	Flow    int32
	Hop     int32 // WireChunk
	Window  int32 // WireTCPRound
	Packets int64 // WireChunk
	Bytes   int64 // WireChunk
	Offset  int64 // WireTCPRound
}

// encodeSent flattens an outbox event into wire form.
func (e *emulation) encodeSent(s des.Sent[payload]) (WireEvent, error) {
	p := s.Data
	w := WireEvent{Time: s.Time, Dst: int32(s.Dst), Src: int32(s.Src), SrcIdx: int32(s.SrcIdx), Flow: p.flow}
	switch p.kind {
	case kindFlowStart:
		w.Kind = WireFlowStart
	case kindTCPRound:
		w.Kind = WireTCPRound
		offset, window := e.roundShape(p.arg)
		w.Offset, w.Window = offset, int32(window)
	case kindChunk, kindTailChunk:
		w.Kind = WireChunk
		w.Hop = p.arg
		w.Packets, w.Bytes = e.sizeOf(p.flow, p.kind)
	default:
		return w, fmt.Errorf("%w: unshippable event kind %d", ErrBadConfig, p.kind)
	}
	return w, nil
}

// decodeWire rebuilds the in-memory payload from wire form against this
// process's own flow table, and admits only what a legitimate sender can
// produce: a chunk of one of its flow's two shapes at a hop on its path, a TCP
// round startFlowTCP schedules for that flow — in a run that uses slow start.
// Anything else returns an error (it poisons the run) rather than panicking
// the worker or being executed.
func (e *emulation) decodeWire(w WireEvent) (des.Sent[payload], error) {
	s := des.Sent[payload]{Time: w.Time, Dst: int(w.Dst), Src: int(w.Src), SrcIdx: int(w.SrcIdx)}
	if w.Flow < 0 || int(w.Flow) >= len(e.flows) {
		return s, fmt.Errorf("%w: wire event names flow %d of %d", ErrBadConfig, w.Flow, len(e.flows))
	}
	bytes, rt := e.flows[w.Flow].Bytes, e.routeOf(w.Flow)
	s.Data.flow = w.Flow
	switch w.Kind {
	case WireFlowStart:
		s.Data.kind = kindFlowStart
	case WireTCPRound:
		r, ok := e.roundAt(bytes, w.Offset, w.Window)
		if !ok || e.cfg.Transport != TCPSlowStart || e.rttOf(w.Flow) <= 0 {
			return s, fmt.Errorf("%w: wire TCP round at offset %d, window %d is no round of %d-byte flow %d in this run", ErrBadConfig, w.Offset, w.Window, bytes, w.Flow)
		}
		s.Data.kind, s.Data.arg = kindTCPRound, r
	case WireChunk:
		if w.Hop < 0 || int(w.Hop) > len(rt) {
			return s, fmt.Errorf("%w: wire chunk at hop %d of a %d-link route", ErrBadConfig, w.Hop, len(rt))
		}
		full := bytes >= e.cfg.ChunkBytes && w.Bytes == e.cfg.ChunkBytes && w.Packets == e.fullPackets
		tailPackets, tailBytes := e.sizeOf(w.Flow, kindTailChunk)
		tail := tailBytes > 0 && w.Bytes == tailBytes && w.Packets == tailPackets
		if !full && !tail {
			return s, fmt.Errorf("%w: wire chunk of %d packets, %d bytes is neither shape of flow %d", ErrBadConfig, w.Packets, w.Bytes, w.Flow)
		}
		s.Data.kind, s.Data.arg = kindChunk, w.Hop
		if !full {
			s.Data.kind = kindTailChunk
		}
	default:
		return s, fmt.Errorf("%w: unknown wire event kind %d", ErrBadConfig, w.Kind)
	}
	return s, nil
}

// SortWire orders barrier events by the global merge key (time, sending
// engine, send order) — the exact order Run's barrier applies, which the
// coordinator must replicate before routing events back to workers.
func SortWire(evs []WireEvent) {
	slices.SortFunc(evs, func(a, b WireEvent) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Src, b.Src), cmp.Compare(a.SrcIdx, b.SrcIdx))
	})
}

// NormalizeConfig applies Run's validation and defaulting to cfg in place.
// The distributed coordinator normalizes before encoding the scenario for
// shipment, so every process hashes and rebuilds the exact same defaulted
// configuration.
func NormalizeConfig(cfg *Config) error { _, err := validate(cfg); return err }

// checkDistConfig rejects features that do not distribute: PROFILE pre-runs
// happen in-process on the coordinator before the assignment ships, and crash
// schedules are owned by the in-process fallback path (worker loss).
// Straggler and degradation schedules DO distribute: they only scale the
// coordinator's cost model in commit, never worker execution, so the result
// path is unaffected by where engines physically run.
func checkDistConfig(cfg *Config) error {
	if cfg.Profile {
		return fmt.Errorf("%w: NetFlow profiling does not run distributed (run the PROFILE pre-run in-process)", ErrBadConfig)
	}
	if cfg.Faults.HasCrashes() || len(cfg.Elastic) > 0 || cfg.OnMembership != nil {
		return fmt.Errorf("%w: crash and elastic schedules do not run distributed (the coordinator drives membership changes itself and replays a lost worker in-process)", ErrBadConfig)
	}
	return nil
}

// WindowReport is one executed window as a worker reports it: the per-engine
// counters of its local engines (full-length arrays, non-local slots zero),
// the cross-engine outbox in wire form and, at a window that crosses a
// measurement-window boundary, the worker's telemetry share.
type WindowReport struct {
	Events  []int64
	Charges []int64
	Remote  []int64
	Queue   []int64
	Outbox  []WireEvent
	// Telemetry is the histograms of the worker's engines and State the link
	// arrays of its NetState (the flow arrays stay empty), whose counters the
	// coordinator folds the traffic matrix from; both are nil unless
	// telemetry is on and the window crosses a measurement-window
	// (BucketWidth) boundary.
	Telemetry *telemetry.Partial
	State     *NetState
}

// DistLocal runs a subset of engines on one worker process. Every worker
// rebuilds the identical emulation from the shipped scenario, seeds only the
// flows starting on its engines (preserving the per-LP sequence streams),
// and steps its engines under the coordinator's window commands.
type DistLocal struct {
	e          *emulation
	kernel     *des.Kernel[payload]
	stepper    *des.Stepper[payload]
	engines    []int
	lastBucket int
	// rep and injectBuf are per-window scratch reused across calls: the
	// WindowReport Step returns is valid until the next Step, and Inject
	// decodes the whole barrier batch into injectBuf before a single bulk
	// push into the stepper.
	rep       WindowReport
	injectBuf []des.Sent[payload]
	// busy aliases the stepper's per-LP wall timing for the last window; nil
	// unless EnableTiming was called.
	busy []float64
}

// NewDistLocal builds the worker-side engine runtime for the given local
// engines. tel may be nil (telemetry disabled run).
func NewDistLocal(cfg Config, engines []int, tel *telemetry.Collector) (*DistLocal, error) {
	if err := checkDistConfig(&cfg); err != nil {
		return nil, err
	}
	o := runOptions{tel: tel}
	e, err := prepare(&cfg, &o)
	if err != nil {
		return nil, err
	}
	kernel, err := des.New(e.kernelConfig())
	if err != nil {
		return nil, err
	}
	localSet := make([]bool, cfg.NumEngines)
	for _, eng := range engines {
		if eng < 0 || eng >= cfg.NumEngines {
			return nil, fmt.Errorf("%w: local engine %d out of range [0,%d)", ErrBadConfig, eng, cfg.NumEngines)
		}
		localSet[eng] = true
	}
	if err := e.seed(kernel, localSet); err != nil {
		return nil, err
	}
	stepper, err := kernel.Stepper(engines)
	if err != nil {
		return nil, err
	}
	return &DistLocal{
		e: e, kernel: kernel, stepper: stepper,
		engines: append([]int(nil), engines...),
	}, nil
}

// Lookahead returns the synchronization window width this worker derived —
// the coordinator cross-checks it against its own during the handshake.
func (d *DistLocal) Lookahead() float64 { return d.e.lookahead }

// Close releases the engines' kernel Stepper.
// Call it when the worker is done (BYE, or any error that ends Serve).
func (d *DistLocal) Close() { d.stepper.Close() }

// EnableTiming turns on per-engine wall-clock window timing so
// AppendComputeSpans can report measured compute spans. Off by default —
// untraced workers take no clock readings.
func (d *DistLocal) EnableTiming() { d.stepper.EnableTiming() }

// AppendComputeSpans appends one wall-clock compute span per local engine
// active in the window just stepped (obs.Timeline.CommitWindow's activity
// rule: nonzero charges or remote sends). The coordinator overlays
// these measured durations onto its deterministic modeled spans; they never
// influence the result path.
func (d *DistLocal) AppendComputeSpans(dst []obs.Span, T, end float64) []obs.Span {
	if d.busy == nil {
		return dst
	}
	for _, eng := range d.engines {
		if d.rep.Charges[eng] == 0 && d.rep.Remote[eng] == 0 {
			continue
		}
		dst = append(dst, obs.Span{
			Kind: obs.SpanCompute, Engine: eng, Start: T, End: end, Wall: d.busy[eng],
		})
	}
	return dst
}

// Vote returns the earliest pending local event time (the barrier vote).
func (d *DistLocal) Vote() (float64, bool) { return d.stepper.NextEventTime() }

// Inject delivers barrier-merged events, already in global merge order. The
// whole batch is decoded first, then pushed in one stepper call — order
// within the batch is preserved, so sequence assignment is unchanged.
func (d *DistLocal) Inject(evs []WireEvent) error {
	d.injectBuf = d.injectBuf[:0]
	for _, w := range evs {
		s, err := d.e.decodeWire(w)
		if err != nil {
			return err
		}
		d.injectBuf = append(d.injectBuf, s)
	}
	return d.stepper.Inject(d.injectBuf)
}

// Step executes one window on the local engines and reports its counters,
// outbox and telemetry share. A handler error (including a poisoned run from
// a malformed event) is returned, not panicked. The returned report reuses
// per-window scratch buffers and is only valid until the next Step call —
// callers that retain it across windows must copy.
func (d *DistLocal) Step(T, end float64) (*WindowReport, error) {
	res, err := d.stepper.Step(T, end)
	if err != nil {
		return nil, err
	}
	d.busy = res.Busy
	r := &d.rep
	r.Events, r.Charges, r.Remote, r.Queue = res.Events, res.Charges, res.Remote, res.Queue
	r.Outbox = r.Outbox[:0]
	r.Telemetry, r.State = nil, nil
	for _, s := range res.Outbox {
		w, err := d.e.encodeSent(s)
		if err != nil {
			return nil, err
		}
		r.Outbox = append(r.Outbox, w)
	}
	if b := int(end / d.e.cfg.BucketWidth); d.e.tel != nil && b > d.lastBucket {
		// Ship the share exactly when the coordinator's Commit folds and
		// merges: when this window crosses a measurement-window boundary.
		// The link arrays are aliased, not copied: the report is encoded
		// before the next Step writes them.
		r.Telemetry = d.e.tel.ExportPartial(d.engines)
		s := &d.e.NetState
		r.State = &NetState{BusyUntil: s.BusyUntil, LinkBytes: s.LinkBytes, LinkPackets: s.LinkPackets, Drops: s.Drops}
		d.lastBucket = b
	}
	return r, nil
}

// DistMerge is the coordinator's half: it owns the barrier bookkeeping and
// the observation plane (time model, telemetry, recorders) and assembles the
// final Result from the workers' exports.
type DistMerge struct {
	e     *emulation
	stats *des.Stats
	// win is the per-window record, its slices reused across CommitWindow calls
	// (sinks must not retain them).
	win obs.Window
	// active flags the engines currently in the run's membership; resizes
	// update it, and assemble only requires coverage of active engines.
	active []bool
}

// NewDistMerge builds the coordinator-side merge state. Options carry the
// run's observability (recorders, stats, telemetry, context) exactly as for
// Run.
func NewDistMerge(cfg Config, opts ...Option) (*DistMerge, error) {
	if err := checkDistConfig(&cfg); err != nil {
		return nil, err
	}
	var o runOptions
	o.apply(opts)
	e, err := prepare(&cfg, &o)
	if err != nil {
		return nil, err
	}
	n := cfg.NumEngines
	m := &DistMerge{
		e: e,
		stats: &des.Stats{
			Events:      make([]int64, n),
			Charges:     make([]int64, n),
			RemoteSends: make([]int64, n),
		},
		win: obs.Window{
			Events:  make([]int64, n),
			Charges: make([]int64, n),
			Remote:  make([]int64, n),
			Queue:   make([]int64, n),
		},
		active: make([]bool, n),
	}
	for i := range m.active {
		m.active[i] = true
	}
	e.recordRun(e.lookahead, false)
	return m, nil
}

// Lookahead returns the synchronization window width.
func (m *DistMerge) Lookahead() float64 { return m.e.lookahead }

// Trace returns the run's tracing timeline, nil when tracing is off — the
// transport layer uses it to map engines onto worker slots and to merge
// worker-measured wall spans.
func (m *DistMerge) Trace() *obs.Timeline { return m.e.trace }

// RecordEvent forwards a lifecycle event to the run's recorder chain. The
// transport layer reports live membership churn (worker joins, drains,
// heartbeat losses) through it; all fields must be virtual-time quantities
// so recorded traces stay deterministic.
func (m *DistMerge) RecordEvent(ev obs.Event) { m.e.recordEvent(ev) }

// CheckReport measures one worker's report for the window ending at end
// against the run before anything indexes it: counters for every engine,
// outbox events for engines inside the run and — exactly when the window
// crosses a measurement-window boundary on a run with telemetry — a
// telemetry share that fits beside link state sized for the run. The
// transport calls it on receipt, so a failing report is blamed on its sender.
func (m *DistMerge) CheckReport(end float64, r *WindowReport) error {
	n := m.e.cfg.NumEngines
	if len(r.Charges) != n || len(r.Remote) != n || len(r.Events) != n || len(r.Queue) != n {
		return fmt.Errorf("emu: window report sized for %d engines, want %d", len(r.Charges), n)
	}
	for _, ev := range r.Outbox {
		if ev.Dst < 0 || int(ev.Dst) >= n {
			return fmt.Errorf("emu: window report outbox event for engine %d, outside [0,%d)", ev.Dst, n)
		}
	}
	if want := m.e.tel.Crosses(end); (r.Telemetry != nil) != want || (r.State != nil) != want {
		return fmt.Errorf("%w: window report ending at %g carries share %t and state %t, want both %t",
			telemetry.ErrBadPartial, end, r.Telemetry != nil, r.State != nil, want)
	}
	if r.State != nil {
		if err := r.State.check(len(m.e.nw.Links), 0); err != nil {
			return err
		}
	}
	return m.e.tel.CheckPartial(r.Telemetry)
}

// CommitWindow commits one executed window [T, end) — the one the
// coordinator's des.Grid picked, with the idle virtual time skipped it jumped
// to get there — from the workers' reports, each held to CheckReport and
// together covering every engine exactly once: at a measurement-window
// crossing the telemetry shares install and the link states are gathered
// first (so the commit folds the post-window traffic, as in-process), the
// reports sum into the window record, and the record goes through the same
// commit an in-process window does. The returned attribution names the
// worker that gated the window (none when tracing is off); an error — a
// canceled context — ends the run.
func (m *DistMerge) CommitWindow(T, end, skipped float64, reports []*WindowReport) (obs.WindowStat, error) {
	n := m.e.cfg.NumEngines
	w := &m.win
	clear(w.Events)
	clear(w.Charges)
	clear(w.Remote)
	clear(w.Queue)
	var parts []*telemetry.Partial
	var owner []*NetState // engine → the state of the report sharing its histograms
	for _, r := range reports {
		// Queue depths are the workers' post-window (pre-merge) occupancy — the
		// merge happens on the coordinator after the report is cut.
		for lp := 0; lp < n; lp++ {
			w.Events[lp] += r.Events[lp]
			w.Charges[lp] += r.Charges[lp]
			w.Remote[lp] += r.Remote[lp]
			w.Queue[lp] += r.Queue[lp]
		}
		if r.Telemetry != nil {
			parts = append(parts, r.Telemetry)
			if owner == nil {
				owner = make([]*NetState, n)
			}
			for _, eng := range r.Telemetry.Engines {
				owner[eng] = r.State
			}
		}
	}
	if m.e.tel.Crosses(end) {
		if err := m.e.tel.InstallPartials(parts); err != nil {
			return obs.WindowStat{}, err
		}
		m.e.NetState = m.e.gather(func(eng int) *NetState { return owner[eng] })
	}
	w.Index, w.Start, w.End = m.stats.Windows, T, end
	st, err := m.e.commit(w)
	m.stats.SkippedTime += skipped
	for lp := 0; lp < n; lp++ {
		m.stats.Events[lp] += w.Events[lp]
		m.stats.Charges[lp] += w.Charges[lp]
		m.stats.RemoteSends[lp] += w.Remote[lp]
	}
	m.stats.Windows++
	m.stats.VirtualEnd = end
	return st, err
}

// Finalize assembles the Result from the workers' final exports (pulled with
// no pending events) through the same assemble a resize uses, which also
// verifies each worker's per-engine kernel counters against the coordinator's
// own window accounting — a cheap end-to-end protocol integrity check. wall is
// the coordinator-measured elapsed time.
func (m *DistMerge) Finalize(exports []*ElasticExport, wall time.Duration) (*Result, error) {
	if err := m.assemble(exports); err != nil {
		return nil, err
	}
	m.stats.WallTime = wall
	return m.e.buildResult(m.stats, nil), nil
}
