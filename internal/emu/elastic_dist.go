package emu

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/netgraph"
	"repro/internal/telemetry"
)

// Distributed elastic membership: the coordinator's and worker's halves of a
// resize barrier. The sequence mirrors the in-process applyResize exactly —
// the barrier snapshot is the migration source and the new rollback fence —
// but the state lives spread across worker processes:
//
//	coordinator                                  workers
//	  (deliver held outbox to old owners)
//	  EXPORT ────────────────────────────────▶   DistLocal.Export
//	  ◀──────────── ElasticExport (events, slot arrays, telemetry)
//	  DistMerge.Resize: assemble, repartition,
//	  route pending events to new owners
//	  INSTALL (per member) ───────────────────▶  DistLocal.Reseat
//	  ◀──────────── ack (lookahead + next vote)
//
// Every array a worker exports is naturally masked by the single-writer
// ownership discipline (a worker's slots are the only nonzero ones), so
// exports ship raw state; installs are cut from the assembled global state
// and masked per the NEW ownership so the discipline holds after the resize.

// ElasticExport is one worker's complete barrier state, pulled at a resize
// (or drain) barrier with its engines quiesced.
type ElasticExport struct {
	// Engines is the worker's (old) engine set.
	Engines []int
	// Events is the worker's pending events in kernel-checkpoint order:
	// LP-major, per-LP in captured (time, seq) order. Dst is the old LP.
	Events []WireEvent
	// BusyUntil/LinkBytes/Drops are the flattened [2*link+dir] transmitter
	// slots (non-owned slots zero).
	BusyUntil []float64
	LinkBytes []int64
	Drops     []int64
	// Delivered/FCTs are the per-flow delivery state (non-owned flows 0/-1).
	Delivered []int64
	FCTs      []float64
	// Telemetry is the worker's full slow-cadence telemetry share; nil when
	// telemetry is disabled.
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
	// BusyUntil/LinkBytes/Drops/Delivered/FCTs are the global slot arrays
	// masked to the member's new ownership.
	BusyUntil []float64
	LinkBytes []int64
	Drops     []int64
	Delivered []int64
	FCTs      []float64
	// Telemetry is the member's masked slow-cadence share, cut from the
	// coordinator's just-assembled collector; nil when telemetry is disabled.
	Telemetry *telemetry.Partial
}

// wireOwner computes the engine owning a wire event under the current
// assignment — the distributed mirror of ownerOf, and literally that behind
// decodeWire's validation, so both paths route a migrated event identically.
func (e *emulation) wireOwner(w WireEvent) (int, error) {
	s, err := e.decodeWire(w)
	if err != nil {
		return 0, err
	}
	eng, _ := e.ownerOf(des.Event[payload]{Data: s.Data})
	return eng, nil
}

// Export captures this worker's complete state at a quiesced barrier for a
// membership change (the worker stays runnable: a follow-up Reseat installs
// the post-resize state, or BYE releases a drained worker).
func (d *DistLocal) Export(at float64) (*ElasticExport, error) {
	e := d.e
	cp := d.kernel.Checkpoint(at)
	ex := &ElasticExport{
		Engines:   append([]int(nil), d.engines...),
		BusyUntil: make([]float64, 2*len(e.busyUntil)),
		LinkBytes: make([]int64, 2*len(e.linkBytes)),
		Drops:     make([]int64, 2*len(e.drops)),
		Delivered: append([]int64(nil), e.delivered...),
		FCTs:      append([]float64(nil), e.fcts...),
	}
	for _, s := range cp.Export() {
		w, err := e.encodeSent(s)
		if err != nil {
			return nil, err
		}
		ex.Events = append(ex.Events, w)
	}
	for l := range e.busyUntil {
		ex.BusyUntil[2*l], ex.BusyUntil[2*l+1] = e.busyUntil[l][0], e.busyUntil[l][1]
		ex.LinkBytes[2*l], ex.LinkBytes[2*l+1] = e.linkBytes[l][0], e.linkBytes[l][1]
		ex.Drops[2*l], ex.Drops[2*l+1] = e.drops[l][0], e.drops[l][1]
	}
	if e.tel != nil {
		ex.Telemetry = e.tel.ExportPartial(d.engines, true)
	}
	return ex, nil
}

// Reseat installs a post-resize state: the kernel restores from a synthetic
// checkpoint of the member's share of the pending events (preserving the
// in-process sequence numbering), the stepper is rebuilt over the new engine
// set, and every emulation slot array is overwritten with its masked share.
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
	if len(in.BusyUntil) != 2*len(e.busyUntil) || len(in.LinkBytes) != 2*len(e.linkBytes) ||
		len(in.Drops) != 2*len(e.drops) {
		return fmt.Errorf("%w: reseat link arrays sized for %d links, want %d",
			ErrBadConfig, len(in.BusyUntil)/2, len(e.busyUntil))
	}
	if len(in.Delivered) != len(e.delivered) || len(in.FCTs) != len(e.fcts) {
		return fmt.Errorf("%w: reseat flow arrays cover %d flows, want %d",
			ErrBadConfig, len(in.Delivered), len(e.delivered))
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
	cp, err := des.BuildCheckpoint(in.At, n, stats, sents)
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
	for l := range e.busyUntil {
		e.busyUntil[l] = [2]float64{in.BusyUntil[2*l], in.BusyUntil[2*l+1]}
		e.linkBytes[l] = [2]int64{in.LinkBytes[2*l], in.LinkBytes[2*l+1]}
		e.drops[l] = [2]int64{in.Drops[2*l], in.Drops[2*l+1]}
	}
	copy(e.delivered, in.Delivered)
	copy(e.fcts, in.FCTs)
	d.engines = append(d.engines[:0], in.Engines...)
	if e.tel != nil {
		if err := e.tel.InstallPartials([]*telemetry.Partial{in.Telemetry}); err != nil {
			return err
		}
	}
	d.lastBucket = int(in.At / e.cfg.BucketWidth)
	return nil
}

// Assignment returns the coordinator's current node→engine assignment.
func (m *DistMerge) Assignment() []int { return append([]int(nil), m.e.assignment...) }

// Activate restricts the merge's active engine set to the given members. The
// elastic coordinator calls it once at startup: NumEngines is the capacity,
// and only the initial workers' engine blocks are live — the rest activate
// through Resize as workers join.
func (m *DistMerge) Activate(engines []int) {
	for i := range m.active {
		m.active[i] = false
	}
	live := 0
	for _, eng := range engines {
		if eng >= 0 && eng < len(m.active) {
			m.active[eng] = true
			live++
		}
	}
	// Peak-cluster accounting starts from the initial live membership;
	// resizes raise it through EventResize.
	m.NoteClusterSize(live)
}

// AppliedResizes returns the membership changes applied so far.
func (m *DistMerge) AppliedResizes() []AppliedResize {
	if m.e.membership == nil {
		return nil
	}
	return append([]AppliedResize(nil), m.e.membership.Resizes...)
}

// Loads returns the cumulative per-engine kernel-event charge — the load
// picture a repartitioning policy balances against.
func (m *DistMerge) Loads() []float64 { return loadsOf(m.stats.Charges) }

// Resize applies a membership change at barrier time at: the workers'
// exports are assembled into the global barrier state, the assignment
// switches to the new engine set, pending events are routed to their new
// owners in the canonical old-LP-major order, and one install per member
// group is cut and masked. groups lists each continuing member's new engine
// set (an empty group yields a nil install — a drained member that gets BYE
// instead). The returned width is the post-resize kernel lookahead; the
// run's reported Lookahead (like in-process) stays the initial one.
func (m *DistMerge) Resize(at float64, exports []*ElasticExport, engines, assignment []int, groups [][]int) ([]*ElasticInstall, float64, error) {
	e := m.e
	n := e.cfg.NumEngines
	nlinks := len(e.nw.Links)

	// Exports must partition the old active engine set.
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for xi, ex := range exports {
		if ex == nil {
			return nil, 0, fmt.Errorf("emu: missing resize export %d", xi)
		}
		if len(ex.BusyUntil) != 2*nlinks || len(ex.LinkBytes) != 2*nlinks || len(ex.Drops) != 2*nlinks {
			return nil, 0, fmt.Errorf("emu: resize export %d link arrays sized for %d links, want %d",
				xi, len(ex.BusyUntil)/2, nlinks)
		}
		if len(ex.Delivered) != len(e.delivered) || len(ex.FCTs) != len(e.fcts) {
			return nil, 0, fmt.Errorf("emu: resize export %d covers %d flows, want %d",
				xi, len(ex.Delivered), len(e.delivered))
		}
		for _, eng := range ex.Engines {
			if eng < 0 || eng >= n || owner[eng] >= 0 {
				return nil, 0, fmt.Errorf("emu: resize exports do not partition the engines (engine %d)", eng)
			}
			owner[eng] = xi
		}
	}
	for eng := 0; eng < n; eng++ {
		if m.active[eng] && owner[eng] < 0 {
			return nil, 0, fmt.Errorf("emu: no resize export covers active engine %d", eng)
		}
	}

	// The new membership: engines must be valid and exactly covered by the
	// member groups; the assignment must target only the new set.
	newActive := make([]bool, n)
	for _, eng := range engines {
		if eng < 0 || eng >= n || newActive[eng] {
			return nil, 0, fmt.Errorf("emu: resize engine set repeats or exceeds capacity (engine %d of %d)", eng, n)
		}
		newActive[eng] = true
	}
	if err := e.checkAssignment("resize", assignment, newActive); err != nil {
		return nil, 0, err
	}
	groupOf := make([]int, n)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for gi, g := range groups {
		for _, eng := range g {
			if eng < 0 || eng >= n || !newActive[eng] || groupOf[eng] >= 0 {
				return nil, 0, fmt.Errorf("emu: member groups do not partition the new engine set (engine %d)", eng)
			}
			groupOf[eng] = gi
		}
	}
	for _, eng := range engines {
		if groupOf[eng] < 0 {
			return nil, 0, fmt.Errorf("emu: new engine %d belongs to no member group", eng)
		}
	}

	// Assemble the global barrier state by old ownership. Counters could be
	// summed (non-owned slots are zero), but FCTs are -1-initialized
	// everywhere, so selection by owner is the uniform correct rule.
	busy := make([]float64, 2*nlinks)
	linkBytes := make([]int64, 2*nlinks)
	drops := make([]int64, 2*nlinks)
	for l, link := range e.nw.Links {
		for dir, end := 0, [2]int{link.A, link.B}; dir < 2; dir++ {
			xi := owner[e.assignment[end[dir]]]
			if xi < 0 {
				continue
			}
			busy[2*l+dir] = exports[xi].BusyUntil[2*l+dir]
			linkBytes[2*l+dir] = exports[xi].LinkBytes[2*l+dir]
			drops[2*l+dir] = exports[xi].Drops[2*l+dir]
		}
	}
	delivered := make([]int64, len(e.delivered))
	fcts := make([]float64, len(e.fcts))
	for i, f := range e.flows {
		xi := owner[e.assignment[f.dst]]
		if xi < 0 {
			fcts[i] = -1
			continue
		}
		delivered[i] = exports[xi].Delivered[i]
		fcts[i] = exports[xi].FCTs[i]
	}

	// Pending events per old LP, in each export's captured order.
	perLP := make([][]WireEvent, n)
	for _, ex := range exports {
		for _, w := range ex.Events {
			if w.Dst < 0 || int(w.Dst) >= n {
				return nil, 0, fmt.Errorf("emu: resize export holds an event for invalid LP %d", w.Dst)
			}
			perLP[w.Dst] = append(perLP[w.Dst], w)
		}
	}

	// Telemetry: the workers' exports together are the exact current global
	// state; installing them brings the coordinator's collector up to date
	// so the members' masked shares can be cut from it.
	if e.tel != nil {
		parts := make([]*telemetry.Partial, 0, len(exports))
		for _, ex := range exports {
			if ex.Telemetry != nil {
				parts = append(parts, ex.Telemetry)
			}
		}
		if err := e.tel.InstallPartials(parts); err != nil {
			return nil, 0, err
		}
	}

	// The assembly above read the old ownership; now the assignment switches.
	e.resizeTo(at, engines, assignment)
	m.active = newActive
	newL := Lookahead(e.nw, e.assignment, e.cfg.MinLookahead)

	// Cut one install per member group.
	installs := make([]*ElasticInstall, len(groups))
	for gi, g := range groups {
		if len(g) == 0 {
			continue
		}
		in := &ElasticInstall{
			At:          at,
			Lookahead:   newL,
			Engines:     append([]int(nil), g...),
			Assignment:  append([]int(nil), assignment...),
			Windows:     m.stats.Windows,
			SkippedTime: m.stats.SkippedTime,
			Events:      append([]int64(nil), m.stats.Events...),
			Charges:     append([]int64(nil), m.stats.Charges...),
			RemoteSends: append([]int64(nil), m.stats.RemoteSends...),
			BusyUntil:   make([]float64, 2*nlinks),
			LinkBytes:   make([]int64, 2*nlinks),
			Drops:       make([]int64, 2*nlinks),
			Delivered:   make([]int64, len(delivered)),
			FCTs:        make([]float64, len(fcts)),
		}
		mine := make([]bool, n)
		for _, eng := range g {
			mine[eng] = true
		}
		for l, link := range e.nw.Links {
			for dir, end := 0, [2]int{link.A, link.B}; dir < 2; dir++ {
				if mine[e.assignment[end[dir]]] {
					in.BusyUntil[2*l+dir] = busy[2*l+dir]
					in.LinkBytes[2*l+dir] = linkBytes[2*l+dir]
					in.Drops[2*l+dir] = drops[2*l+dir]
				}
			}
		}
		for i, f := range e.flows {
			if mine[e.assignment[f.dst]] {
				in.Delivered[i] = delivered[i]
				in.FCTs[i] = fcts[i]
			} else {
				in.FCTs[i] = -1
			}
		}
		if e.tel != nil {
			p := e.tel.ExportPartial(g, true)
			maskPartialSlow(p, e.nw, e.assignment, mine)
			in.Telemetry = p
		}
		installs[gi] = in
	}

	// Route every pending event to its new owner, scanning old LPs in order
	// — exactly the push order an in-process Restore(cp, newL, ownerOf)
	// would produce, so per-LP sequence numbers come out identical.
	for lp := 0; lp < n; lp++ {
		for _, w := range perLP[lp] {
			eng, err := e.wireOwner(w)
			if err != nil {
				return nil, 0, err
			}
			gi := groupOf[eng]
			if gi < 0 || installs[gi] == nil {
				return nil, 0, fmt.Errorf("emu: pending event routed to engine %d with no member", eng)
			}
			w.Dst = int32(eng)
			installs[gi].Pending = append(installs[gi].Pending, w)
		}
	}
	return installs, newL, nil
}

// maskPartialSlow zeroes the slow-cadence slots of p not owned by the member
// engine set under the (post-resize) assignment: a link direction's tx slots
// belong to the transmitting endpoint's engine.
func maskPartialSlow(p *telemetry.Partial, nw *netgraph.Network, assignment []int, member []bool) {
	if p == nil || !p.HasSlow {
		return
	}
	for l, link := range nw.Links {
		if !member[assignment[link.A]] {
			p.LinkTxBytes[2*l], p.LinkTxPackets[2*l] = 0, 0
		}
		if !member[assignment[link.B]] {
			p.LinkTxBytes[2*l+1], p.LinkTxPackets[2*l+1] = 0, 0
		}
	}
}
