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

// tcpRound releases one congestion window's worth of chunks at the source.
type tcpRound struct {
	flow   *flowRun
	offset int64 // first byte of this round
	window int   // chunks in this round
}

// startFlowTCP schedules the flow's rounds: window sizes 1, 2, 4, ... up to
// tcpMaxWindow, one round per RTT.
func (e *emulation) startFlowTCP(t float64, f *flowRun, s *des.Scheduler) {
	rtt := f.rtt
	if rtt <= 0 {
		// Degenerate path; fall back to blasting.
		e.startFlowBlast(t, f, s)
		return
	}
	remaining := f.bytes
	var offset int64
	window := 1
	round := 0
	for remaining > 0 {
		roundBytes := int64(window) * e.cfg.ChunkBytes
		if roundBytes > remaining {
			roundBytes = remaining
		}
		s.Schedule(s.LP(), t+float64(round)*rtt, tcpRound{
			flow:   f,
			offset: offset,
			window: window,
		})
		offset += roundBytes
		remaining -= roundBytes
		round++
		window *= 2
		if window > tcpMaxWindow {
			window = tcpMaxWindow
		}
	}
}

// releaseRound injects up to window chunks starting at the round's offset.
func (e *emulation) releaseRound(t float64, r tcpRound, s *des.Scheduler) {
	e.release(t, r.flow, r.flow.bytes-r.offset, r.window, s)
}
