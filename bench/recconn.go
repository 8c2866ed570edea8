package main

import (
	"sync"
	"time"

	"repro/internal/dist"
)

// frameOverhead is the wire framing of one dist.Frame: a uint32 length and
// the type byte precede the payload.
const frameOverhead = 5

// numMsgTypes bounds dist.MsgType for the per-type tables.
const numMsgTypes = int(dist.MsgSpans) + 1

// connStats is what a set of recording connections saw during one
// distributed run: frames and bytes by Frame.Type in each direction, time
// inside Send and Recv, and — on the coordinator side — the wall time of
// every window's round trip. One connStats is shared by all coordinator-side
// conns of a run, another by all worker-side conns; the workers run on their
// own goroutines, hence the mutex.
type connStats struct {
	mu sync.Mutex

	sentFrames, recvFrames [numMsgTypes]int64
	sentBytes, recvBytes   [numMsgTypes]int64
	sendS, recvS           float64

	// Coordinator side: a window's round trip runs from the first EVENTS
	// frame sent to the last WINDOW_DONE received (peers of them).
	peers       int
	open        bool
	winStart    time.Time
	done        int
	rtts        []float64
	firstEvents time.Time
}

func (s *connStats) frames() (n int64) {
	for t := range s.sentFrames {
		n += s.sentFrames[t] + s.recvFrames[t]
	}
	return n
}

func (s *connStats) bytes() (n int64) {
	for t := range s.sentBytes {
		n += s.sentBytes[t] + s.recvBytes[t]
	}
	return n
}

// recConn wraps a dist.Conn and records every frame into st.
type recConn struct {
	dist.Conn
	st *connStats
}

func (c recConn) Send(f dist.Frame) error {
	t0 := time.Now()
	err := c.Conn.Send(f)
	now := time.Now()
	s := c.st
	s.mu.Lock()
	s.sendS += now.Sub(t0).Seconds()
	if err == nil && int(f.Type) < numMsgTypes {
		s.sentFrames[f.Type]++
		s.sentBytes[f.Type] += int64(len(f.Payload)) + frameOverhead
	}
	switch f.Type {
	case dist.MsgEvents:
		if s.firstEvents.IsZero() {
			s.firstEvents = t0
		}
		if !s.open {
			s.open, s.winStart, s.done = true, t0, 0
		}
	case dist.MsgFinish:
		// The last EVENTS round collects votes only; no window follows it.
		s.open = false
	}
	s.mu.Unlock()
	return err
}

func (c recConn) Recv(timeout time.Duration) (dist.Frame, error) {
	t0 := time.Now()
	f, err := c.Conn.Recv(timeout)
	now := time.Now()
	s := c.st
	s.mu.Lock()
	s.recvS += now.Sub(t0).Seconds()
	if err == nil && int(f.Type) < numMsgTypes {
		s.recvFrames[f.Type]++
		s.recvBytes[f.Type] += int64(len(f.Payload)) + frameOverhead
		if f.Type == dist.MsgWindowDone && s.open {
			if s.done++; s.done == s.peers {
				s.rtts = append(s.rtts, now.Sub(s.winStart).Seconds())
				s.open = false
			}
		}
	}
	s.mu.Unlock()
	return f, err
}
