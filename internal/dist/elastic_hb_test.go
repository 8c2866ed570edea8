package dist

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/emu"
)

// TestHeartbeatDetectsHungWorker: a worker that completes its handshake and
// then goes one-way silent — a hung process or half-open link: our frames
// reach it, its frames vanish — must be declared lost after roughly
// misses×interval, far sooner than the StepTimeout silence bound.
func TestHeartbeatDetectsHungWorker(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	conns := make([]Conn, 2)
	for i := range conns {
		c, s := Loopback()
		conns[i] = c
		if i == 1 {
			// Swallow every send after HELLO and READY: the worker still
			// receives (and even answers) our PINGs, but nothing it says —
			// PONGs included — ever arrives.
			s = NewChaosConn(s, ChaosConfig{PartitionAfter: 2})
		}
		go Serve(ctx, s, WorkerOptions{})
	}

	const (
		interval = 50 * time.Millisecond
		misses   = 3
	)
	spec := &RunSpec{Cfg: testSpec(t).Cfg}
	start := time.Now()
	_, _, err := RunElastic(ctx, spec, conns, ElasticOptions{
		Options:           Options{StepTimeout: 30 * time.Second},
		HeartbeatInterval: interval,
		HeartbeatMisses:   misses,
		OnResize: func(emu.MembershipChange) ([]int, error) {
			return nil, errors.New("no membership change expected")
		},
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("a partitioned worker must fail the run (no OnWorkerLoss configured)")
	}
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("want ErrWorkerLost, got %v", err)
	}
	if !strings.Contains(err.Error(), "heartbeat") {
		t.Fatalf("loss must be attributed to missed heartbeats, got %v", err)
	}
	// Detection latency: ~misses×interval (150ms) plus handshake and the windows
	// that ran before the partition bit. The point of the heartbeat is beating
	// the 30s StepTimeout by an order of magnitude.
	if elapsed > 10*time.Second {
		t.Fatalf("heartbeat detection took %v; must be far under the 30s StepTimeout", elapsed)
	}
}

// TestHeartbeatPongKeepsSlowWorkerAlive: a slow-but-alive worker answers
// PINGs, so probing must NOT declare it lost before the StepTimeout even when
// it takes many heartbeat intervals to produce its response.
func TestHeartbeatPongKeepsSlowWorkerAlive(t *testing.T) {
	c, s := Loopback()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			f, err := s.Recv(5 * time.Second)
			if err != nil {
				return
			}
			if f.Type == MsgPing {
				s.Send(Frame{Type: MsgPong})
			}
		}
	}()
	// The peer never sends the VOTE we wait for, but PONGs every PING: the
	// wait must run to the full timeout, not trip the miss threshold.
	start := time.Now()
	_, err := recvHooked(c, 0, 500*time.Millisecond, &heartbeat{interval: 50 * time.Millisecond, misses: 3}, recvHooks{})
	elapsed := time.Since(start)
	c.Close()
	<-done
	if err == nil {
		t.Fatal("no frame ever arrived; the wait must eventually fail")
	}
	if strings.Contains(err.Error(), "heartbeat") {
		t.Fatalf("a PONGing worker must not be declared heartbeat-dead: %v", err)
	}
	if elapsed < 400*time.Millisecond {
		t.Fatalf("wait gave up after %v, before the 500ms response deadline", elapsed)
	}
}

// TestHeartbeatRTTHook: a PONG answering our PING delivers a round-trip
// measurement to the onRTT hook — the feed for the per-worker heartbeat RTT
// gauge — and the wait keeps running.
func TestHeartbeatRTTHook(t *testing.T) {
	c, s := Loopback()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			f, err := s.Recv(5 * time.Second)
			if err != nil {
				return
			}
			if f.Type == MsgPing {
				s.Send(Frame{Type: MsgPong})
			}
		}
	}()
	var rtts []time.Duration
	hooks := recvHooks{onRTT: func(w int, rtt time.Duration) {
		if w != 7 {
			t.Errorf("rtt reported for worker %d, want 7", w)
		}
		rtts = append(rtts, rtt)
	}}
	_, err := recvHooked(c, 7, 400*time.Millisecond,
		&heartbeat{interval: 50 * time.Millisecond, misses: 100}, hooks)
	c.Close()
	<-done
	if err == nil {
		t.Fatal("no frame ever arrived; the wait must eventually fail")
	}
	if len(rtts) == 0 {
		t.Fatal("PONGs answered PINGs but no RTT reached the hook")
	}
	for _, r := range rtts {
		if r <= 0 || r > time.Second {
			t.Errorf("implausible heartbeat rtt %v", r)
		}
	}
}
