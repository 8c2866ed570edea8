package emu

import "repro/internal/des"

// TransportMode selects how a flow's packet groups are released into the
// network at the source host.
type TransportMode int

const (
	// Blast releases every chunk at the flow's start time; the access
	// link's FIFO transmitter then paces them at line rate. This matches
	// MaSSF's packet-reference processing for bulk transfers and is the
	// default.
	Blast TransportMode = iota
	// TCPSlowStart models the window growth of the TCP connections the
	// paper's traffic actually rode (MPICH-G and HTTP both run over TCP):
	// chunks are released in rounds of exponentially increasing size, one
	// round per RTT, capped at tcpMaxWindow chunks. Transfers therefore
	// start gently and stretch across several RTTs, changing the burst
	// structure the engines observe without changing total load.
	TCPSlowStart
)

// tcpMaxWindow caps the per-RTT chunk window (64 KiB chunks × 32 ≈ a 2 MiB
// congestion window, generous for 2003 paths but finite).
const tcpMaxWindow = 32

// tcpCapRound is the first round released at the window cap.
const tcpCapRound = 5 // 1<<5 == tcpMaxWindow

// roundShape is slow start's arithmetic, spelled once: round r of any flow
// releases window chunks — 1, 2, 4, ... doubling up to tcpMaxWindow — starting
// at byte offset, the sum of the rounds before it. A flow has the rounds whose
// offset lies inside it. Events and the wire name a round by r; the wire's
// Offset and Window are this function's values, derived on encode and matched
// exactly on decode.
func (e *emulation) roundShape(r int32) (offset int64, window int) {
	if r < tcpCapRound {
		return int64(1<<r-1) * e.cfg.ChunkBytes, 1 << r
	}
	return (tcpMaxWindow - 1 + int64(r-tcpCapRound)*tcpMaxWindow) * e.cfg.ChunkBytes, tcpMaxWindow
}

// roundAt inverts roundShape for a flow of size bytes: the round that starts
// at byte offset with the given window, ok=false when slow start releases no
// such round of it.
func (e *emulation) roundAt(bytes, offset int64, window int32) (r int32, ok bool) {
	if offset < 0 || offset >= bytes {
		return 0, false
	}
	for ; ; r++ { // at most the flow's own round count: rounds cross the wire only at a reseat
		if o, w := e.roundShape(r); o >= offset {
			return r, o == offset && int32(w) == window
		}
	}
}

// startFlowTCP schedules the flow's rounds, one per RTT.
func (e *emulation) startFlowTCP(t float64, flow int32, s *des.Scheduler[payload]) {
	rtt := e.rttOf(flow)
	if rtt <= 0 {
		// Degenerate path; fall back to blasting.
		e.startFlowBlast(t, flow, s)
		return
	}
	for r := int32(0); ; r++ {
		if offset, _ := e.roundShape(r); offset >= e.flows[flow].Bytes {
			return
		}
		s.Schedule(s.LP(), t+float64(r)*rtt, payload{flow: flow, arg: r, kind: kindTCPRound})
	}
}

// releaseRound injects up to the round's window of chunks starting at its
// offset.
func (e *emulation) releaseRound(t float64, p payload, s *des.Scheduler[payload]) {
	offset, window := e.roundShape(p.arg)
	e.release(t, p.flow, e.flows[p.flow].Bytes-offset, window, s)
}
