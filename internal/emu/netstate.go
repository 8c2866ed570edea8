package emu

import "fmt"

// NetState is the link and flow state a run mutates packet by packet, as one
// flat value: a distributed worker exports it at a resize barrier and at the
// end of the run, and the coordinator assembles the workers' states and cuts
// each member's share from the result.
//
// Exactly one engine writes each slot, so handlers need no synchronization and
// a worker's state is nonzero only in the slots its engines own: direction 0 of
// a link carries A→B traffic and belongs to A's engine, direction 1 to B's, and
// a flow's delivery state belongs to its destination's engine. SlotEngines and
// gather are the one place that rule is spelled.
type NetState struct {
	// BusyUntil, LinkBytes, LinkPackets and Drops are per link direction,
	// indexed [2*link+dir]: when the FIFO transmitter frees up, the bytes and
	// packets it carried and the packets tail-dropped at its full buffer.
	// Telemetry's traffic matrix, link totals and drop total are folded from
	// the last three (the emulation is the telemetry.Traffic).
	BusyUntil   []float64
	LinkBytes   []int64
	LinkPackets []int64
	Drops       []int64
	// Delivered and FCTs are per flow, indexed like Workload.Flows: the bytes
	// that reached the destination and the completion time (-1 until the last
	// one does).
	Delivered []int64
	FCTs      []float64
}

// newNetState is the state at rest: idle links, nothing delivered.
func newNetState(links, flows int) NetState {
	s := NetState{
		BusyUntil:   make([]float64, 2*links),
		LinkBytes:   make([]int64, 2*links),
		LinkPackets: make([]int64, 2*links),
		Drops:       make([]int64, 2*links),
		Delivered:   make([]int64, flows),
		FCTs:        make([]float64, flows),
	}
	for i := range s.FCTs {
		s.FCTs[i] = -1
	}
	return s
}

// check is the one shape test of a state that came off the wire: every array
// must be sized for the run before anything indexes it.
func (s *NetState) check(links, flows int) error {
	if len(s.BusyUntil) != 2*links || len(s.LinkBytes) != 2*links ||
		len(s.LinkPackets) != 2*links || len(s.Drops) != 2*links {
		return fmt.Errorf("%w: link state sized %d/%d/%d/%d, want %d slots for %d links",
			ErrBadConfig, len(s.BusyUntil), len(s.LinkBytes), len(s.LinkPackets), len(s.Drops), 2*links, links)
	}
	if len(s.Delivered) != flows || len(s.FCTs) != flows {
		return fmt.Errorf("%w: flow state sized %d/%d, want %d flows",
			ErrBadConfig, len(s.Delivered), len(s.FCTs), flows)
	}
	return nil
}

// gather builds a state slot by slot from the engine that owns each slot under
// the current assignment: from(engine) is the state to read that engine's slots
// out of, or nil to leave them at rest. Assembling the workers' exports, their
// crossing reports' link state and masking a member's share are all this walk;
// a state without flow arrays leaves the flow slots at rest.
func (e *emulation) gather(from func(engine int) *NetState) NetState {
	out := newNetState(len(e.nw.Links), len(e.flows))
	for i := range out.BusyUntil {
		src, _ := e.SlotEngines(i)
		if s := from(src); s != nil {
			out.BusyUntil[i], out.LinkBytes[i] = s.BusyUntil[i], s.LinkBytes[i]
			out.LinkPackets[i], out.Drops[i] = s.LinkPackets[i], s.Drops[i]
		}
	}
	for i := range e.flows {
		if s := from(e.assignment[e.flows[i].Dst]); s != nil && len(s.Delivered) > 0 {
			out.Delivered[i], out.FCTs[i] = s.Delivered[i], s.FCTs[i]
		}
	}
	return out
}

// SlotEngines returns the engines at link direction slot's transmitting and
// receiving end under the current assignment; the slot belongs to the first.
// With Counters it makes the emulation the telemetry.Traffic a fold reads.
func (e *emulation) SlotEngines(slot int) (src, dst int) {
	l := &e.nw.Links[slot/2]
	if slot%2 == 1 {
		return e.assignment[l.B], e.assignment[l.A]
	}
	return e.assignment[l.A], e.assignment[l.B]
}

// Counters returns the link counters a fold reads.
func (e *emulation) Counters() (bytes, packets, drops []int64) {
	return e.LinkBytes, e.LinkPackets, e.Drops
}
