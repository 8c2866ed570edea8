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
// a flow's delivery state belongs to its destination's engine. gather is the
// one place that rule is spelled.
type NetState struct {
	// BusyUntil, LinkBytes and Drops are per link direction, indexed
	// [2*link+dir]: when the FIFO transmitter frees up, the bytes it carried and
	// the packets tail-dropped at its full buffer.
	BusyUntil []float64
	LinkBytes []int64
	Drops     []int64
	// Delivered and FCTs are per flow, indexed like Workload.Flows: the bytes
	// that reached the destination and the completion time (-1 until the last
	// one does).
	Delivered []int64
	FCTs      []float64
}

// newNetState is the state at rest: idle links, nothing delivered.
func newNetState(links, flows int) NetState {
	s := NetState{
		BusyUntil: make([]float64, 2*links),
		LinkBytes: make([]int64, 2*links),
		Drops:     make([]int64, 2*links),
		Delivered: make([]int64, flows),
		FCTs:      make([]float64, flows),
	}
	for i := range s.FCTs {
		s.FCTs[i] = -1
	}
	return s
}

// clone returns a copy that shares no storage with s.
func (s *NetState) clone() NetState {
	return NetState{
		BusyUntil: append([]float64(nil), s.BusyUntil...),
		LinkBytes: append([]int64(nil), s.LinkBytes...),
		Drops:     append([]int64(nil), s.Drops...),
		Delivered: append([]int64(nil), s.Delivered...),
		FCTs:      append([]float64(nil), s.FCTs...),
	}
}

// check is the one shape test of a state that came off the wire: every array
// must be sized for the run before anything indexes it.
func (s *NetState) check(links, flows int) error {
	if len(s.BusyUntil) != 2*links || len(s.LinkBytes) != 2*links || len(s.Drops) != 2*links {
		return fmt.Errorf("%w: link state sized %d/%d/%d, want %d slots for %d links",
			ErrBadConfig, len(s.BusyUntil), len(s.LinkBytes), len(s.Drops), 2*links, links)
	}
	if len(s.Delivered) != flows || len(s.FCTs) != flows {
		return fmt.Errorf("%w: flow state sized %d/%d, want %d flows",
			ErrBadConfig, len(s.Delivered), len(s.FCTs), flows)
	}
	return nil
}

// gather builds a state slot by slot from the engine that owns each slot under
// the current assignment: from(engine) is the state to read that engine's slots
// out of, or nil to leave them at rest. Assembling the workers' exports and
// masking a member's share are both this walk.
func (e *emulation) gather(from func(engine int) *NetState) NetState {
	out := newNetState(len(e.nw.Links), len(e.flows))
	for l, link := range e.nw.Links {
		for dir, end := range [2]int{link.A, link.B} {
			if s, i := from(e.assignment[end]), 2*l+dir; s != nil {
				out.BusyUntil[i], out.LinkBytes[i], out.Drops[i] = s.BusyUntil[i], s.LinkBytes[i], s.Drops[i]
			}
		}
	}
	for i := range e.flows {
		if s := from(e.assignment[e.flows[i].Dst]); s != nil {
			out.Delivered[i], out.FCTs[i] = s.Delivered[i], s.FCTs[i]
		}
	}
	return out
}
