package dist

import (
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the Writes that reach the socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestTCPConnOneWritePerFrame: header and payload leave in one Write — one
// system call and, on a NoDelay socket, one segment per frame — and a payload
// returned by Recv stays intact until the next Recv, whatever arrives behind it.
func TestTCPConnOneWritePerFrame(t *testing.T) {
	p, q := net.Pipe()
	cc := &countingConn{Conn: p}
	a, b := NewTCPConn(cc), NewTCPConn(q)
	defer a.Close()
	defer b.Close()
	frames := []Frame{
		{Type: MsgEvents, Payload: EncodeEvents(nil, nil)},
		{Type: MsgFinish},
		{Type: MsgWindow, Payload: bytes.Repeat([]byte{0xab}, 9000)}, // beyond both buffers' first size
		{Type: MsgVote, Payload: Vote{Has: true, Time: 1.5}.Append(nil)},
	}
	errc := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if err := a.Send(f); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for _, want := range frames {
		got, err := b.Recv(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %s arrived as %s, %d bytes", want.Type, got.Type, len(got.Payload))
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if n := cc.writes.Load(); n != int64(len(frames)) {
		t.Fatalf("%d frames took %d writes, want one each", len(frames), n)
	}
}

// TestLoopbackPayloadLifetimeAndTimer: a received payload stays intact until
// the next Recv however many frames the peer sends meanwhile — its buffer goes
// back to the sender only then — and the one timer a connection re-arms still
// bounds every Recv that sees no frame, with the error a fresh timer gave.
func TestLoopbackPayloadLifetimeAndTimer(t *testing.T) {
	a, b := Loopback()
	for round := byte(0); round < 3; round++ {
		_, err := b.Recv(5 * time.Millisecond)
		if err == nil || !isTimeout(err) || !strings.Contains(err.Error(), "loopback: recv timeout after 5ms") {
			t.Fatalf("round %d: an idle bounded Recv returned %v", round, err)
		}
		for i := byte(0); i < 4; i++ {
			if err := a.Send(Frame{Type: MsgEvents, Payload: []byte{round, i, i, i}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := byte(0); i < 4; i++ {
			f, err := b.Recv(time.Second)
			if err != nil {
				t.Fatal(err)
			}
			// A buffer handed back too early would be overwritten by this one.
			if err := a.Send(Frame{Type: MsgSpans, Payload: []byte{9, 9, 9, 9}}); err != nil {
				t.Fatal(err)
			}
			if want := []byte{round, i, i, i}; !bytes.Equal(f.Payload, want) {
				t.Fatalf("round %d: payload %v became %v before the next Recv", round, want, f.Payload)
			}
		}
		for i := 0; i < 4; i++ {
			if f, err := b.Recv(time.Second); err != nil || f.Type != MsgSpans {
				t.Fatalf("round %d: draining: %v %v", round, f.Type, err)
			}
		}
	}
}
