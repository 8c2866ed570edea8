package emu

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Distributed elastic membership: the coordinator's and worker's halves of a
// resize barrier. The sequence mirrors the in-process applyResize exactly —
// the barrier snapshot is the migration source — but the state lives spread
// across worker processes:
//
//	coordinator                                  workers
//	  (deliver held outbox to old owners)
//	  EXPORT ────────────────────────────────▶   DistLocal.Export
//	  ◀──────────── ElasticExport (events, slot arrays, histograms)
//	  DistMerge.Resize: assemble, repartition,
//	  route pending events to new owners
//	  INSTALL (per member) ───────────────────▶  DistLocal.Reseat
//	  ◀──────────── ack (lookahead + next vote)
//
// A worker's NetState is naturally masked by the single-writer ownership
// discipline (its slots are the only ones off rest), so exports ship raw state;
// installs are cut from the assembled global state and masked per the NEW
// ownership so the discipline holds after the resize. Telemetry rides along as
// per-engine histograms only: the traffic matrix is folded on the coordinator
// from the link counters NetState already carries. FINISH pulls the same
// export once more, without the pending events, and Finalize assembles it the
// same way.

// ElasticExport is one worker's complete barrier state, pulled with its
// engines quiesced at a resize (or drain) barrier and, as its final state, when
// the run ends.
type ElasticExport struct {
	// Engines is the worker's (old) engine set.
	Engines []int
	// Events, Charges and RemoteSends are the worker's cumulative kernel
	// counters; its own engines' entries must equal the coordinator's window
	// accounting.
	Events      []int64
	Charges     []int64
	RemoteSends []int64
	// Pending is the worker's pending events in kernel-checkpoint order:
	// LP-major, per-LP in captured (time, seq) order. Dst is the old LP. A
	// final export carries none.
	Pending []WireEvent
	// NetState is the worker's link and flow slots (non-owned slots at rest).
	NetState
	// Telemetry is the histograms of the worker's engines; nil when telemetry
	// is disabled.
	Telemetry *telemetry.Partial
}

// ElasticInstall reseats one member onto the post-resize state.
type ElasticInstall struct {
	// At is the barrier time of the resize.
	At float64
	// Lookahead is the coordinator-computed post-resize window width; the
	// worker recomputes it from the assignment and cross-checks bit-for-bit.
	Lookahead float64
	// Engines is the member's new engine set.
	Engines []int
	// Assignment is the new global node→engine assignment.
	Assignment []int
	// Windows/SkippedTime and the per-engine counter arrays seed the
	// restored kernel's cumulative statistics (identical on every member, so
	// every worker reports run totals after the resize).
	Windows     int64
	SkippedTime float64
	Events      []int64
	Charges     []int64
	RemoteSends []int64
	// Pending is the member's share of the global pending events, Dst
	// rewritten to the new owning LP, in the global old-LP-major scan order
	// (the exact order an in-process Restore would push them).
	Pending []WireEvent
	// NetState is the global link and flow state masked to the member's new
	// ownership.
	NetState
	// Telemetry is the histograms of the member's new engines, cut from the
	// coordinator's just-assembled collector; nil when telemetry is disabled.
	Telemetry *telemetry.Partial
}

// Export captures this worker's state at a quiesced barrier. With pending set
// it is the migration source of a membership change and the kernel's queues
// go along in checkpoint order (the worker stays runnable: a follow-up
// Reseat installs the post-resize state, or BYE releases a drained worker).
// Without, it is the answer to FINISH: what a finished — or truncated — run
// leaves queued is nobody's input, so it is neither captured nor sorted, and
// the export aliases the worker's NetState instead of copying it: the worker
// never steps again after FINISH, so nothing writes the slots while the
// export is encoded and sent.
func (d *DistLocal) Export(pending bool) (*ElasticExport, error) {
	e, stats := d.e, d.kernel.Stats()
	ex := &ElasticExport{
		Engines:     append([]int(nil), d.engines...),
		Events:      append([]int64(nil), stats.Events...),
		Charges:     append([]int64(nil), stats.Charges...),
		RemoteSends: append([]int64(nil), stats.RemoteSends...),
		NetState:    e.NetState,
	}
	if pending {
		ex.NetState = e.gather(func(int) *NetState { return &e.NetState }) // a copy
		for _, s := range d.kernel.Checkpoint().Export() {
			w, err := e.encodeSent(s)
			if err != nil {
				return nil, err
			}
			ex.Pending = append(ex.Pending, w)
		}
	}
	ex.Telemetry = e.tel.ExportPartial(d.engines)
	return ex, nil
}

// Reseat installs a post-resize state: the kernel restores from a synthetic
// checkpoint of the member's share of the pending events (preserving the
// in-process sequence numbering), the stepper is rebuilt over the new engine
// set, and the emulation takes over the install's masked NetState.
func (d *DistLocal) Reseat(in *ElasticInstall) error {
	e := d.e
	n := e.cfg.NumEngines
	if len(in.Assignment) != e.nw.NumNodes() {
		return fmt.Errorf("%w: reseat assignment covers %d nodes, network has %d",
			ErrBadConfig, len(in.Assignment), e.nw.NumNodes())
	}
	if len(in.Events) != n || len(in.Charges) != n || len(in.RemoteSends) != n {
		return fmt.Errorf("%w: reseat stats cover %d engines, want %d", ErrBadConfig, len(in.Events), n)
	}
	if err := in.NetState.check(len(e.nw.Links), len(e.flows)); err != nil {
		return err
	}

	// The worker independently derives the post-resize window width; any
	// disagreement with the coordinator means the builds diverged.
	newL := Lookahead(e.nw, in.Assignment, e.cfg.MinLookahead)
	if math.Float64bits(newL) != math.Float64bits(in.Lookahead) {
		return fmt.Errorf("%w: reseat lookahead %g, this worker derives %g — builds disagree",
			ErrBadConfig, in.Lookahead, newL)
	}

	sents := make([]des.Sent[payload], 0, len(in.Pending))
	for _, w := range in.Pending {
		s, err := e.decodeWire(w)
		if err != nil {
			return err
		}
		sents = append(sents, s)
	}
	stats := des.Stats{
		Windows:     in.Windows,
		SkippedTime: in.SkippedTime,
		VirtualEnd:  in.At,
		Events:      in.Events,
		Charges:     in.Charges,
		RemoteSends: in.RemoteSends,
	}
	cp, err := des.BuildCheckpoint(n, stats, sents)
	if err != nil {
		return err
	}
	d.stepper.Close()
	if err := d.kernel.Restore(cp, newL, nil); err != nil {
		return err
	}
	stepper, err := d.kernel.Stepper(in.Engines)
	if err != nil {
		return err
	}
	d.stepper = stepper

	e.assignment = append(e.assignment[:0], in.Assignment...)
	e.NetState = in.NetState
	d.engines = append(d.engines[:0], in.Engines...)
	if err := e.tel.InstallPartials([]*telemetry.Partial{in.Telemetry}); err != nil {
		return err
	}
	d.lastBucket = int(in.At / e.cfg.BucketWidth)
	return nil
}

// Activate restricts the merge's active engine set to the given members. The
// elastic coordinator calls it once at startup: NumEngines is the capacity,
// and only the initial workers' engine blocks are live — the rest activate
// through Resize as workers join.
func (m *DistMerge) Activate(engines []int) {
	clear(m.active)
	live := 0
	for _, eng := range engines {
		if eng >= 0 && eng < len(m.active) {
			m.active[eng] = true
			live++
		}
	}
	// Peak-cluster accounting starts from the initial live membership;
	// resizes raise it through EventResize.
	m.e.runStats.NoteClusterSize(live)
}

// AppliedResizes returns the membership changes applied so far.
func (m *DistMerge) AppliedResizes() []AppliedResize {
	if m.e.membership == nil {
		return nil
	}
	return append([]AppliedResize(nil), m.e.membership.Resizes...)
}

// CheckExport measures one worker's export against the run before anything
// indexes it — the one shape test resize and final exports share: counters for
// every engine, a NetState sized for the run's links and flows, engines and
// pending-event destinations inside the run, a telemetry share that fits, and
// the worker's own engines' kernel counters equal to the coordinator's window
// accounting (a cheap end-to-end protocol integrity check). The transport
// calls it on receipt, so a failing export is blamed on its sender.
func (m *DistMerge) CheckExport(ex *ElasticExport) error {
	e, n := m.e, m.e.cfg.NumEngines
	if ex == nil {
		return fmt.Errorf("emu: missing export")
	}
	if len(ex.Events) != n || len(ex.Charges) != n || len(ex.RemoteSends) != n {
		return fmt.Errorf("emu: export counters cover %d/%d/%d engines, want %d",
			len(ex.Events), len(ex.Charges), len(ex.RemoteSends), n)
	}
	if err := ex.NetState.check(len(e.nw.Links), len(e.flows)); err != nil {
		return err
	}
	for _, eng := range ex.Engines {
		if eng < 0 || eng >= n {
			return fmt.Errorf("emu: export claims engine %d, outside [0,%d)", eng, n)
		}
		if ex.Events[eng] != m.stats.Events[eng] || ex.Charges[eng] != m.stats.Charges[eng] ||
			ex.RemoteSends[eng] != m.stats.RemoteSends[eng] {
			return fmt.Errorf("emu: engine %d counters diverge between its worker and the coordinator", eng)
		}
	}
	for _, w := range ex.Pending {
		if w.Dst < 0 || int(w.Dst) >= n {
			return fmt.Errorf("emu: export holds an event for invalid LP %d", w.Dst)
		}
	}
	return e.tel.CheckPartial(ex.Telemetry)
}

// assemble turns the workers' exports — each held to CheckExport, together
// covering every active engine exactly once — into the coordinator's global
// barrier state: each slot from the export of the engine owning it under the
// current assignment. The exports' histograms install into the coordinator's
// collector, which then folds from the assembled counters like an in-process
// run's.
func (m *DistMerge) assemble(exports []*ElasticExport) error {
	e := m.e
	owner := make([]*NetState, e.cfg.NumEngines)
	var parts []*telemetry.Partial
	for xi, ex := range exports {
		if err := m.CheckExport(ex); err != nil {
			return fmt.Errorf("export %d: %w", xi, err)
		}
		for _, eng := range ex.Engines {
			if owner[eng] != nil {
				return fmt.Errorf("emu: exports do not partition the engines (engine %d)", eng)
			}
			owner[eng] = &ex.NetState
		}
		if ex.Telemetry != nil {
			parts = append(parts, ex.Telemetry)
		}
	}
	for eng, on := range m.active {
		if on && owner[eng] == nil {
			return fmt.Errorf("emu: no export covers active engine %d", eng)
		}
	}
	if err := e.tel.InstallPartials(parts); err != nil {
		return err
	}
	e.NetState = e.gather(func(eng int) *NetState { return owner[eng] })
	return nil
}

// Resize applies a membership change at barrier time at: the workers'
// exports are assembled into the global barrier state, policy repartitions
// the nodes onto the new engine set (handed the cumulative charges as the load
// picture, like an in-process resize), pending events are routed to their new
// owners in the canonical old-LP-major order, and one install per member
// group is cut and masked. groups lists each continuing member's engine set —
// together they are the new membership — and an empty group yields a nil
// install (a drained member that gets BYE instead). The returned width is the
// post-resize kernel lookahead; the run's reported Lookahead (like in-process)
// stays the initial one.
func (m *DistMerge) Resize(at float64, exports []*ElasticExport, groups [][]int, policy MembershipPolicy) ([]*ElasticInstall, float64, error) {
	e := m.e
	n := e.cfg.NumEngines

	// The new membership: every engine valid and in exactly one group.
	var engines []int
	newActive, groupOf := make([]bool, n), make([]int, n)
	for gi, g := range groups {
		for _, eng := range g {
			if eng < 0 || eng >= n || newActive[eng] {
				return nil, 0, fmt.Errorf("emu: member groups repeat an engine or exceed capacity (engine %d of %d)", eng, n)
			}
			newActive[eng], groupOf[eng] = true, gi
			engines = append(engines, eng)
		}
	}
	sort.Ints(engines)

	// The assembly and the policy's telemetry fold read the old ownership;
	// then the assignment switches.
	if err := m.assemble(exports); err != nil {
		return nil, 0, err
	}
	global := &e.NetState
	assignment, err := e.repartition(policy,
		MembershipChange{At: at, Engines: engines, Loads: metrics.Floats(m.stats.Charges)}, newActive)
	if err != nil {
		return nil, 0, err
	}
	e.resizeTo(at, engines, assignment)
	m.active = newActive
	newL := Lookahead(e.nw, e.assignment, e.cfg.MinLookahead)

	// Cut one install per member group, masked to its new ownership.
	installs := make([]*ElasticInstall, len(groups))
	for gi, g := range groups {
		if len(g) == 0 {
			continue
		}
		installs[gi] = &ElasticInstall{
			At:          at,
			Lookahead:   newL,
			Engines:     append([]int(nil), g...),
			Assignment:  append([]int(nil), assignment...),
			Windows:     m.stats.Windows,
			SkippedTime: m.stats.SkippedTime,
			Events:      append([]int64(nil), m.stats.Events...),
			Charges:     append([]int64(nil), m.stats.Charges...),
			RemoteSends: append([]int64(nil), m.stats.RemoteSends...),
			NetState: e.gather(func(eng int) *NetState {
				if slices.Contains(g, eng) {
					return global
				}
				return nil
			}),
			Telemetry: e.tel.ExportPartial(g),
		}
	}

	// Route every pending event to its new owner — ownerOf itself, behind
	// decodeWire's validation, so both paths route a migrated event identically
	// — scanning old LPs in order (each export is LP-major and the exports
	// partition the LPs): exactly the push order an in-process
	// Restore(cp, newL, ownerOf) would produce, so per-LP sequence numbers come
	// out identical.
	perLP := make([][]WireEvent, n)
	for _, ex := range exports {
		for _, w := range ex.Pending {
			perLP[w.Dst] = append(perLP[w.Dst], w)
		}
	}
	for _, evs := range perLP {
		for _, w := range evs {
			s, err := e.decodeWire(w)
			if err != nil {
				return nil, 0, err
			}
			eng, _ := e.ownerOf(des.Event[payload]{Data: s.Data})
			// The policy's assignment was held to the new membership, so the
			// owner has a member.
			w.Dst = int32(eng)
			installs[groupOf[eng]].Pending = append(installs[groupOf[eng]].Pending, w)
		}
	}
	return installs, newL, nil
}
