package dist

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Conn is one coordinator↔worker channel. Implementations must be safe for
// one sender and one receiver goroutine (not for concurrent Sends, nor for
// concurrent Recvs).
type Conn interface {
	// Send writes one frame, bounded by the transport's write deadline. The
	// payload is the caller's again once Send returns; an implementation that
	// holds a frame back copies it.
	Send(f Frame) error
	// Recv reads one frame, waiting at most timeout (<= 0 means no bound). The
	// payload lives in the connection's receive buffer and is valid only until
	// the next Recv: decode it, or copy it, before receiving again.
	Recv(timeout time.Duration) (Frame, error)
	// Close tears the channel down; pending Sends/Recvs fail.
	Close() error
	// Label names the peer for error messages ("tcp 10.0.0.7:9000", "loopback").
	Label() string
}

// ---- TCP ----

// writeTimeout bounds every frame write; a peer that stops draining its
// socket surfaces as an error here instead of wedging the run.
const writeTimeout = 30 * time.Second

type tcpConn struct {
	c     net.Conn
	r     *bufio.Reader // a frame's length and body arrive in one read
	label string
	// wbuf and rbuf are the frame scratch of the sending and of the receiving
	// goroutine (WriteFrame, ReadFrame).
	wbuf, rbuf []byte
}

// NewTCPConn wraps an established TCP connection (either side).
func NewTCPConn(c net.Conn) Conn {
	if t, ok := c.(*net.TCPConn); ok {
		// Frames are small and latency-sensitive at barriers.
		t.SetNoDelay(true)
	}
	return &tcpConn{c: c, r: bufio.NewReader(c), label: "tcp " + c.RemoteAddr().String()}
}

func (t *tcpConn) Send(f Frame) error {
	if err := t.c.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return err
	}
	if err := WriteFrame(t.c, &t.wbuf, f); err != nil {
		return fmt.Errorf("%s: send %s: %w", t.label, f.Type, err)
	}
	return nil
}

func (t *tcpConn) Recv(timeout time.Duration) (Frame, error) {
	var dl time.Time
	if timeout > 0 {
		dl = time.Now().Add(timeout)
	}
	if err := t.c.SetReadDeadline(dl); err != nil {
		return Frame{}, err
	}
	f, err := ReadFrame(t.r, &t.rbuf)
	if err != nil {
		return Frame{}, fmt.Errorf("%s: recv: %w", t.label, err)
	}
	return f, nil
}

func (t *tcpConn) Close() error  { return t.c.Close() }
func (t *tcpConn) Label() string { return t.label }

// Dial connects to a coordinator or worker address with jittered exponential
// backoff, so the two processes need not be started in a fixed order and a
// fleet of workers does not retry in lockstep. It retries until the context
// expires; the final wait is capped at the context deadline, so an address
// nobody ever listens on returns ctx.Err() promptly at the deadline.
func Dial(ctx context.Context, addr string) (Conn, error) {
	var d net.Dialer
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for {
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return NewTCPConn(c), nil
		}
		// Full jitter over [backoff/2, backoff): desynchronizes a worker
		// fleet without ever collapsing the wait to zero.
		wait := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)))
		if dl, ok := ctx.Deadline(); ok {
			if until := time.Until(dl); until < wait {
				wait = until
			}
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("dist: dial %s: %w (last error: %v)", addr, ctx.Err(), err)
		case <-time.After(wait):
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dist: dial %s: %w", addr, err)
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// Listen opens a TCP listener for incoming peers.
func Listen(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	return l, nil
}

// Accept waits for one peer connection, bounded by the context.
func Accept(ctx context.Context, l net.Listener) (Conn, error) {
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	select {
	case <-ctx.Done():
		l.Close()
		return nil, fmt.Errorf("dist: accept: %w", ctx.Err())
	case r := <-ch:
		if r.err != nil {
			return nil, fmt.Errorf("dist: accept: %w", r.err)
		}
		return NewTCPConn(r.c), nil
	}
}

// ---- Loopback ----

// timeoutError mirrors net timeouts so callers can distinguish "nothing yet"
// from "peer gone" uniformly across transports.
type timeoutError struct{ msg string }

func (e timeoutError) Error() string { return e.msg }
func (e timeoutError) Timeout() bool { return true }

type loopConn struct {
	out  chan<- Frame
	in   <-chan Frame
	done chan struct{}
	once sync.Once
	peer *loopConn
	// spare holds the payload buffers this end sends with; the peer's Recv
	// hands each one back once its frame is no longer valid.
	spare chan []byte
	// Owned by the receiving goroutine: the buffer of the frame last returned,
	// and the one timer every bounded Recv re-arms.
	last  []byte
	timer *time.Timer
}

// Loopback returns a connected in-process pair for socketless tests. Frames
// cross by value; closing either end fails both.
func Loopback() (Conn, Conn) {
	const depth = 16 // frames in flight per direction; the protocol is lockstep
	ab := make(chan Frame, depth)
	ba := make(chan Frame, depth)
	a := &loopConn{out: ab, in: ba, done: make(chan struct{}), spare: make(chan []byte, depth+1)}
	b := &loopConn{out: ba, in: ab, done: make(chan struct{}), spare: make(chan []byte, depth+1)}
	a.peer, b.peer = b, a
	return a, b
}

func (l *loopConn) Send(f Frame) error {
	// Copy the payload, into a buffer the peer is done with when there is one.
	if len(f.Payload) > 0 {
		var buf []byte
		select {
		case buf = <-l.spare:
		default:
		}
		f.Payload = append(buf[:0], f.Payload...)
	}
	select {
	case l.out <- f:
		return nil
	case <-l.done:
		return fmt.Errorf("loopback: send %s: closed", f.Type)
	case <-l.peer.done:
		return fmt.Errorf("loopback: send %s: peer closed", f.Type)
	}
}

func (l *loopConn) Recv(timeout time.Duration) (Frame, error) {
	if l.last != nil {
		select {
		case l.peer.spare <- l.last:
		default:
		}
		l.last = nil
	}
	var timer <-chan time.Time
	if timeout > 0 {
		if l.timer == nil {
			l.timer = time.NewTimer(timeout)
		} else {
			// Stopped by the previous Recv; a tick that beat the Stop goes here.
			select {
			case <-l.timer.C:
			default:
			}
			l.timer.Reset(timeout)
		}
		defer l.timer.Stop()
		timer = l.timer.C
	}
	select {
	case f := <-l.in:
		l.last = f.Payload
		return f, nil
	case <-timer:
		return Frame{}, timeoutError{msg: fmt.Sprintf("loopback: recv timeout after %v", timeout)}
	case <-l.done:
		return Frame{}, fmt.Errorf("loopback: recv: closed")
	case <-l.peer.done:
		// Drain anything the peer sent before closing.
		select {
		case f := <-l.in:
			l.last = f.Payload
			return f, nil
		default:
		}
		return Frame{}, fmt.Errorf("loopback: recv: peer closed")
	}
}

func (l *loopConn) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *loopConn) Label() string { return "loopback" }
