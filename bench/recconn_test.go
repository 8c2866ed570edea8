package main

import (
	"testing"
	"time"

	"repro/internal/dist"
)

// Both ends of a connection must count the same frames and bytes per type.
func TestRecordingConnAgreesOnBothEnds(t *testing.T) {
	a, b := dist.Loopback()
	coord, worker := &connStats{peers: 1}, &connStats{}
	ca, cb := recConn{Conn: a, st: coord}, recConn{Conn: b, st: worker}
	defer ca.Close()
	defer cb.Close()

	exchange := func(from, to dist.Conn, f dist.Frame) {
		t.Helper()
		if err := from.Send(f); err != nil {
			t.Fatal(err)
		}
		got, err := to.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != f.Type || len(got.Payload) != len(f.Payload) {
			t.Fatalf("sent %s/%d bytes, received %s/%d", f.Type, len(f.Payload), got.Type, len(got.Payload))
		}
	}
	// Two windows, then the closing vote round that no window follows.
	for w := 0; w < 2; w++ {
		exchange(ca, cb, dist.Frame{Type: dist.MsgEvents, Payload: make([]byte, 40)})
		exchange(cb, ca, dist.Frame{Type: dist.MsgVote, Payload: make([]byte, 9)})
		exchange(ca, cb, dist.Frame{Type: dist.MsgWindow, Payload: make([]byte, 16)})
		exchange(cb, ca, dist.Frame{Type: dist.MsgWindowDone, Payload: make([]byte, 100+w)})
	}
	exchange(ca, cb, dist.Frame{Type: dist.MsgEvents})
	exchange(cb, ca, dist.Frame{Type: dist.MsgVote, Payload: make([]byte, 9)})
	exchange(ca, cb, dist.Frame{Type: dist.MsgFinish})

	if coord.sentFrames != worker.recvFrames || coord.sentBytes != worker.recvBytes {
		t.Errorf("coordinator→worker: sent %v/%v, received %v/%v",
			coord.sentFrames, coord.sentBytes, worker.recvFrames, worker.recvBytes)
	}
	if worker.sentFrames != coord.recvFrames || worker.sentBytes != coord.recvBytes {
		t.Errorf("worker→coordinator: sent %v/%v, received %v/%v",
			worker.sentFrames, worker.sentBytes, coord.recvFrames, coord.recvBytes)
	}
	if got, want := coord.frames(), int64(11); got != want {
		t.Errorf("coordinator saw %d frames, want %d", got, want)
	}
	wantBytes := int64(11*frameOverhead + 2*40 + 3*9 + 2*16 + 100 + 101)
	if got := coord.bytes(); got != wantBytes || worker.bytes() != wantBytes {
		t.Errorf("bytes: coordinator %d, worker %d, want %d", got, worker.bytes(), wantBytes)
	}
	if len(coord.rtts) != 2 {
		t.Errorf("recorded %d window round trips, want 2 (the closing vote round is not a window)", len(coord.rtts))
	}
	if coord.firstEvents.IsZero() {
		t.Error("first EVENTS frame was not stamped")
	}
}
