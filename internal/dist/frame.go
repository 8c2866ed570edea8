// Package dist is the distributed engine runtime: a coordinator/worker
// protocol that runs each group of simulation engines as its own process,
// connected over TCP (or an in-process loopback for tests), while keeping
// results byte-identical to the in-process emu.Run path.
//
// The protocol is a straight serialization of the conservative kernel's
// window loop (§2.2.3 of the paper):
//
//	worker                         coordinator
//	HELLO          ──────────────▶
//	               ◀────────────── ASSIGN (scenario spec + engines + hash)
//	READY (hash)   ──────────────▶
//	loop:
//	               ◀────────────── EVENTS (barrier-merged events, may be empty)
//	VOTE (min t)   ──────────────▶
//	               ◀────────────── WINDOW [T, T+L)
//	WINDOW_DONE    ──────────────▶  (counters, outbox, telemetry share)
//	               ◀────────────── FINISH / ABORT
//	STATE          ──────────────▶  (the worker's final export)
//	               ◀────────────── BYE
//
// Every frame is a uint32 length prefix followed by a one-byte message type
// and a binary payload; floats travel as raw IEEE-754 bits so no value is
// ever perturbed by a text round-trip. A frame is written with one Write and
// read into the connection's receive buffer, and the four per-window payloads
// are built in and decoded into storage their owners reuse, so the loop
// allocates nothing per window; Conn states how long a payload is valid.
package dist

import (
	"fmt"
	"io"

	"encoding/binary"
)

// Version is the protocol version; HELLO/ASSIGN carry it and any mismatch
// aborts the handshake. v9 dropped the EXPORT command's barrier time, which
// no worker read.
const Version = 9

// MaxFrame bounds a frame's payload (type byte included). It is sized for
// the largest legitimate message — a NetState export on a large topology —
// while keeping a corrupt or hostile length prefix from driving an unbounded
// allocation.
const MaxFrame = 64 << 20

// MsgType identifies a frame's payload.
type MsgType uint8

const (
	// MsgHello opens a worker connection (payload: version).
	MsgHello MsgType = iota + 1
	// MsgAssign ships the scenario spec, the worker's engine set and the
	// spec hash.
	MsgAssign
	// MsgReady acknowledges ASSIGN with the worker's independently computed
	// spec hash and lookahead.
	MsgReady
	// MsgEvents delivers barrier-merged events and requests a vote.
	MsgEvents
	// MsgVote answers with the worker's earliest pending event time.
	MsgVote
	// MsgWindow commands execution of one window [start, end).
	MsgWindow
	// MsgWindowDone reports a window's counters, outbox and telemetry.
	MsgWindowDone
	// 8 and 9 are retired (CHECKPOINT and its ack, a worker snapshot at the
	// checkpoint cadence that nothing restored) and stay unused.
	_
	_
	// MsgFinish ends the run; the worker answers with MsgState, its final
	// ElasticExport (no pending events).
	MsgFinish
	MsgState
	// MsgError reports a worker-side run error (poisoned run, bad event).
	MsgError
	// MsgAbort tells a worker to stop immediately (coordinator shutdown,
	// peer loss, cancellation).
	MsgAbort
	// MsgBye releases the worker after a successful run (or after its state
	// has been exported at a drain barrier).
	MsgBye
	// MsgPing probes a silent worker's liveness; MsgPong answers it. Pongs
	// may interleave with protocol responses and are absorbed anywhere.
	MsgPing
	MsgPong
	// MsgDrain is a worker's unsolicited request to leave the run at the
	// next membership barrier; the coordinator absorbs it anywhere.
	MsgDrain
	// MsgExport pulls a worker's complete barrier state for a membership
	// change; the worker answers with its ElasticExport.
	MsgExport
	// MsgInstall reseats a continuing worker onto the post-resize state;
	// MsgInstallAck confirms with the worker's derived lookahead.
	MsgInstall
	MsgInstallAck
	// MsgSpans ships a worker's buffered wall-clock trace spans. Sent only
	// when tracing is on, immediately before the WINDOW_DONE it annotates; the
	// coordinator absorbs it anywhere.
	MsgSpans
)

// msgNames spells each message type the way the protocol sketch does.
var msgNames = [...]string{
	MsgHello: "HELLO", MsgAssign: "ASSIGN", MsgReady: "READY",
	MsgEvents: "EVENTS", MsgVote: "VOTE", MsgWindow: "WINDOW", MsgWindowDone: "WINDOW_DONE",
	MsgFinish: "FINISH", MsgState: "STATE", MsgError: "ERROR", MsgAbort: "ABORT", MsgBye: "BYE",
	MsgPing: "PING", MsgPong: "PONG", MsgDrain: "DRAIN",
	MsgExport: "EXPORT", MsgInstall: "INSTALL", MsgInstallAck: "INSTALL_ACK", MsgSpans: "SPANS",
}

func (t MsgType) String() string {
	if int(t) < len(msgNames) && msgNames[t] != "" {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Frame is one length-delimited protocol message.
type Frame struct {
	Type    MsgType
	Payload []byte
}

// WriteFrame writes one frame — uint32 little-endian length (type byte +
// payload), the type byte, the payload — in a single Write: header and
// payload are assembled in *scratch, the connection's send buffer, so a
// frame is one system call and, on a NoDelay socket, one segment.
func WriteFrame(w io.Writer, scratch *[]byte, f Frame) error {
	if len(f.Payload)+1 > MaxFrame {
		return fmt.Errorf("dist: frame %s payload %d bytes exceeds MaxFrame %d", f.Type, len(f.Payload), MaxFrame)
	}
	b := binary.LittleEndian.AppendUint32((*scratch)[:0], uint32(len(f.Payload)+1))
	b = append(append(b, byte(f.Type)), f.Payload...)
	*scratch = b
	_, err := w.Write(b)
	return err
}

// ReadFrame reads one frame into *scratch, the connection's receive buffer,
// regrown only when a frame exceeds it: the returned payload aliases it and is
// valid until the next ReadFrame with the same scratch. Empty frames and
// length prefixes beyond MaxFrame are rejected before anything is allocated.
func ReadFrame(r io.Reader, scratch *[]byte) (Frame, error) {
	if cap(*scratch) < 4 {
		*scratch = make([]byte, 0, 512)
	}
	hdr := (*scratch)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 {
		return Frame{}, fmt.Errorf("dist: empty frame")
	}
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("dist: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	if uint32(cap(*scratch)) < n {
		*scratch = make([]byte, 0, n)
	}
	body := (*scratch)[:n]
	if got, err := io.ReadFull(r, body); err != nil {
		return Frame{}, fmt.Errorf("dist: truncated frame (%d of %d bytes): %w", got, n, err)
	}
	return Frame{Type: MsgType(body[0]), Payload: body[1:]}, nil
}
