package dist_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/emu"
	"repro/internal/mapping"
)

// elasticWorker is one in-process worker with a drain trigger.
type elasticWorker struct {
	drain chan struct{}
	errc  chan error
}

func startElasticWorker(ctx context.Context, s dist.Conn) *elasticWorker {
	w := &elasticWorker{drain: make(chan struct{}), errc: make(chan error, 1)}
	go func() { w.errc <- dist.Serve(ctx, s, dist.WorkerOptions{Drain: w.drain}) }()
	return w
}

func (w *elasticWorker) wait(t *testing.T, name string) {
	t.Helper()
	select {
	case err := <-w.errc:
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	case <-time.After(time.Minute):
		t.Fatalf("%s did not exit", name)
	}
}

// elasticCkpt is the checkpoint cadence every elastic test runs with: small
// enough that a 10-second scenario crosses several membership barriers.
const elasticCkpt = 2.0

// TestElasticJoinDrainMatchesReplay: start 2 workers, join a third mid-run,
// drain the first — and require the distributed result to be byte-identical
// to the in-process replay of the recorded membership log. The join is
// preloaded and the drain is requested before the run starts, so both changes
// deterministically land at the first checkpoint barrier: the active engine
// set genuinely changes (slots {0,1} → {1,2}).
func TestElasticJoinDrainMatchesReplay(t *testing.T) {
	for _, topology := range []string{"Campus", "TeraGrid"} {
		topology := topology
		t.Run(topology, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()

			conns := make([]dist.Conn, 2)
			workers := make([]*elasticWorker, 2)
			for i := range conns {
				c, s := dist.Loopback()
				conns[i] = c
				workers[i] = startElasticWorker(ctx, s)
			}
			jc, js := dist.Loopback()
			joiner := startElasticWorker(ctx, js)
			joins := make(chan dist.Conn, 1)
			joins <- jc
			close(workers[0].drain)

			sc, tel := observedScenario(t, topology)
			sk := attachSinks(sc, true)
			o, err := sc.Run(ctx, mapping.Top, core.Elastic(conns, dist.ElasticOptions{
				Options: dist.Options{CheckpointEvery: elasticCkpt},
				Joins:   joins,
			}))
			if err != nil {
				t.Fatalf("elastic run: %v", err)
			}
			workers[0].wait(t, "drained worker")
			workers[1].wait(t, "worker 1")
			joiner.wait(t, "joiner")

			if len(o.Membership.Losses) != 0 {
				t.Fatalf("clean join/drain run recorded losses: %v", o.Membership.Losses)
			}
			if len(o.Membership.Resizes) != 1 {
				t.Fatalf("join+drain at the first barrier must be one resize, got %d: %+v",
					len(o.Membership.Resizes), o.Membership.Resizes)
			}
			rz := o.Membership.Resizes[0]
			if !reflect.DeepEqual(rz.Engines, []int{1, 2}) {
				t.Fatalf("post-resize active set must be engines {1,2}, got %v", rz.Engines)
			}
			m := o.Result.Membership
			if m == nil || len(m.Resizes) != 1 {
				t.Fatalf("result must carry the membership record, got %+v", m)
			}
			if o.Result.Kernel.TotalCharges() == 0 {
				t.Fatal("empty run proves nothing")
			}

			refSc, refTel := observedScenario(t, topology)
			refSk := attachSinks(refSc, false)
			ref, err := refSc.Run(ctx, mapping.Top, core.Replay(o.Assignment, o.Membership))
			if err != nil {
				t.Fatalf("in-process replay: %v", err)
			}
			want, got := canonical(t, ref.Result), canonical(t, o.Result)
			if !bytes.Equal(want, got) {
				t.Fatalf("elastic distributed result diverges from in-process replay (%d vs %d bytes):\nreplay: %.600s\ndistributed: %.600s",
					len(want), len(got), want, got)
			}
			if exp, distExp := exposition(t, refTel), exposition(t, tel); exp != distExp {
				t.Fatalf("elastic distributed exposition diverges from in-process replay:\nreplay:\n%s\ndistributed:\n%s", exp, distExp)
			}
			// The resize resumes the run on a new grid: both shapes announce
			// it to the recorder and count it as a segment.
			wantObs, gotObs := refSk.observed(t, ref.Result), sk.observed(t, o.Result)
			runs := func(jsonl string) int { return strings.Count(jsonl, `"type":"run"`) }
			if runs(gotObs.JSONL) != runs(wantObs.JSONL) || gotObs.Segments != wantObs.Segments || wantObs.Segments != 2 {
				t.Fatalf("distributed run has %d run lines and %d segments, its replay %d and %d (want 2)",
					runs(gotObs.JSONL), gotObs.Segments, runs(wantObs.JSONL), wantObs.Segments)
			}
		})
	}
}

// TestElasticTinyCadenceFinishes: a checkpoint cadence below the float
// spacing of the barrier times advances in one step instead of stalling the
// coordinator, and the run still equals its in-process replay.
func TestElasticTinyCadenceFinishes(t *testing.T) {
	ctx := context.Background()
	conns := make([]dist.Conn, 2)
	workers := make([]*elasticWorker, 2)
	for i := range conns {
		c, s := dist.Loopback()
		conns[i] = c
		workers[i] = startElasticWorker(ctx, s)
	}
	close(workers[0].drain)
	o, err := scenario(t, "Campus").Run(ctx, mapping.Top, core.Elastic(conns, dist.ElasticOptions{
		Options: dist.Options{CheckpointEvery: 1e-20},
	}))
	if err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	workers[0].wait(t, "drained worker")
	workers[1].wait(t, "worker 1")
	if len(o.Membership.Resizes) != 1 {
		t.Fatalf("the drain must apply as one resize, got %+v", o.Membership.Resizes)
	}
	ref, err := scenario(t, "Campus").Run(ctx, mapping.Top, core.Replay(o.Assignment, o.Membership))
	if err != nil {
		t.Fatalf("in-process replay: %v", err)
	}
	if want, got := canonical(t, ref.Result), canonical(t, o.Result); !bytes.Equal(want, got) {
		t.Fatalf("distributed result diverges from in-process replay (%d vs %d bytes)", len(want), len(got))
	}
}

// dieAtConn cuts the coordinator→worker link at the first window starting at
// or after a virtual time — a worker killed mid-run, timed against the
// emulation clock so it deterministically lands after the first membership
// barrier.
type dieAtConn struct {
	dist.Conn
	at float64
}

func (d *dieAtConn) Send(f dist.Frame) error {
	if f.Type == dist.MsgWindow {
		if w, err := dist.DecodeWindow(f.Payload); err == nil && w.Start >= d.at {
			return errInjectedLink
		}
	}
	return d.Conn.Send(f)
}

// TestElasticJoinKillMatchesReplay: start 2 workers, join a third at the
// first checkpoint barrier, then kill a worker at t≈3 — the run must degrade
// through the recovery replay and still match the in-process replay of its
// own membership log byte for byte.
func TestElasticJoinKillMatchesReplay(t *testing.T) {
	for _, topology := range []string{"Campus", "TeraGrid"} {
		topology := topology
		t.Run(topology, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()

			conns := make([]dist.Conn, 2)
			for i := range conns {
				c, s := dist.Loopback()
				conns[i] = c
				startElasticWorker(ctx, s)
			}
			conns[1] = &dieAtConn{Conn: conns[1], at: 3}
			jc, js := dist.Loopback()
			startElasticWorker(ctx, js)
			joins := make(chan dist.Conn, 1)
			joins <- jc

			sc := scenario(t, topology)
			o, err := sc.Run(ctx, mapping.Top, core.Elastic(conns, dist.ElasticOptions{
				Options: dist.Options{CheckpointEvery: elasticCkpt},
				Joins:   joins,
			}))
			if err != nil {
				t.Fatalf("worker loss must degrade, not fail: %v", err)
			}
			if len(o.Membership.Resizes) == 0 {
				t.Fatal("the join never applied: kill at t=3 should follow the t=2 barrier")
			}
			if len(o.Membership.Losses) == 0 {
				t.Fatal("the kill was never recorded")
			}
			for _, l := range o.Membership.Losses {
				if l.At <= o.Membership.Resizes[len(o.Membership.Resizes)-1].At {
					t.Fatalf("recorded loss at t=%g precedes the last resize at t=%g",
						l.At, o.Membership.Resizes[len(o.Membership.Resizes)-1].At)
				}
			}
			if o.Result.Recovery == nil {
				t.Fatal("degraded run must report Recovery")
			}
			for v, e := range o.Result.FinalAssignment {
				for _, dead := range o.Result.Recovery.DeadEngines {
					if e == dead {
						t.Fatalf("node %d still assigned to dead engine %d", v, e)
					}
				}
			}

			ref, err := scenario(t, topology).Run(ctx, mapping.Top, core.Replay(o.Assignment, o.Membership))
			if err != nil {
				t.Fatalf("in-process replay: %v", err)
			}
			want, got := canonical(t, ref.Result), canonical(t, o.Result)
			if !bytes.Equal(want, got) {
				t.Fatalf("degraded elastic result diverges from its replay (%d vs %d bytes):\nreplay: %.600s\ndistributed: %.600s",
					len(want), len(got), want, got)
			}
		})
	}
}

// TestElasticTCPMatchesLoopback runs the full elastic sequence — 2 workers,
// join 1, drain 1 — over real TCP sockets; the transports must be
// interchangeable down to the byte.
func TestElasticTCPMatchesLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	l, err := dist.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	drain0 := make(chan struct{})
	close(drain0) // worker 0 drains from the start, released at the first barrier
	werrs := make(chan error, 3)
	go func() {
		werrs <- dist.DialAndServe(ctx, l.Addr().String(), dist.WorkerOptions{Drain: drain0})
	}()
	go func() { werrs <- dist.DialAndServe(ctx, l.Addr().String(), dist.WorkerOptions{}) }()
	conns := make([]dist.Conn, 2)
	for i := range conns {
		c, err := dist.Accept(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	// The two dials race for slots 0 and 1, so WHICH slot drains is not
	// deterministic — the replay oracle doesn't care: it reproduces whatever
	// the membership log recorded.
	jc, js := dist.Loopback()
	startElasticWorker(ctx, js)
	joins := make(chan dist.Conn, 1)
	joins <- jc

	sc := scenario(t, "Campus")
	o, err := sc.Run(ctx, mapping.Top, core.Elastic(conns, dist.ElasticOptions{
		Options: dist.Options{CheckpointEvery: elasticCkpt},
		Joins:   joins,
	}))
	if err != nil {
		t.Fatalf("elastic over TCP: %v", err)
	}
	if len(o.Membership.Resizes) == 0 {
		t.Fatal("no membership change applied over TCP")
	}
	ref, err := scenario(t, "Campus").Run(ctx, mapping.Top, core.Replay(o.Assignment, o.Membership))
	if err != nil {
		t.Fatalf("in-process replay: %v", err)
	}
	if !bytes.Equal(canonical(t, ref.Result), canonical(t, o.Result)) {
		t.Fatal("TCP elastic result diverges from its in-process replay")
	}
}

// TestChaosConvergesOrTypedError is the fault-injection matrix: with a
// deterministic chaos transport mangling every worker→coordinator send (drop,
// duplicate, delay, reorder), the run must — within its deadline — either
// converge to the same physical outcome as a clean run (losses recovered by
// replay) or fail with a typed, attributable error. Never a hang, never a
// silently wrong result.
func TestChaosConvergesOrTypedError(t *testing.T) {
	clean, err := scenario(t, "Campus").Run(context.Background(), mapping.Top)
	if err != nil {
		t.Fatalf("clean reference: %v", err)
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			conns := make([]dist.Conn, 2)
			for i := range conns {
				c, s := dist.Loopback()
				conns[i] = c
				chaotic := dist.NewChaosConn(s, dist.ChaosConfig{
					Seed:        seed*100 + int64(i),
					DropProb:    0.01,
					DupProb:     0.01,
					ReorderProb: 0.01,
					DelayProb:   0.05,
					MaxDelay:    time.Millisecond,
				})
				go dist.Serve(ctx, chaotic, dist.WorkerOptions{})
			}
			sc := scenario(t, "Campus")
			o, err := sc.Run(ctx, mapping.Top, core.Elastic(conns, dist.ElasticOptions{
				Options: dist.Options{
					CheckpointEvery:  elasticCkpt,
					StepTimeout:      10 * time.Second,
					HandshakeTimeout: 10 * time.Second,
				},
				HeartbeatInterval: 100 * time.Millisecond,
			}))
			if err != nil {
				if !errors.Is(err, dist.ErrWorkerLost) && !errors.Is(err, dist.ErrWorkerFault) &&
					!errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("chaos must surface as a typed error, got: %v", err)
				}
				t.Logf("typed failure under chaos (acceptable): %v", err)
				return
			}
			// Converged: the physical outcome must match the clean run exactly,
			// whether or not the protocol had to degrade to the recovery replay.
			if !reflect.DeepEqual(o.Result.FlowFCTs, clean.Result.FlowFCTs) {
				t.Fatalf("chaos run converged to a DIFFERENT physical outcome (losses: %d)", len(o.Membership.Losses))
			}
			if len(o.Membership.Losses) > 0 && o.Result.Recovery == nil {
				t.Fatal("recorded losses without a recovery report")
			}
			t.Logf("converged under chaos: %d losses, %d resizes", len(o.Membership.Losses), len(o.Membership.Resizes))
		})
	}
}

// desGoroutines counts the live goroutines started from the des package.
func desGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by repro/internal/des.")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestElasticReseatStartsNoGoroutines: a worker process holding several
// engines on real cores steps them on its own goroutine. A membership change
// reseats every worker on a new Stepper (DistLocal.Reseat) and a worker that
// is done closes it (DistLocal.Close) — here one initial worker and one
// joiner, two engines each, so the run contains a reseat of both. Neither
// starts a goroutine in the kernel, and once every Serve has returned the run
// has left none of its goroutines behind.
func TestElasticReseatStartsNoGoroutines(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	settle := func(want int) int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(10 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(10 * time.Millisecond)
		}
		return n
	}
	// Earlier tests' abandoned workers wind down within a second: the base is
	// the count once it has stopped changing.
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == base {
			break
		}
		base = n
	}

	ctx := context.Background()
	c, s := dist.Loopback()
	first := startElasticWorker(ctx, s)
	jc, js := dist.Loopback()
	joiner := startElasticWorker(ctx, js)
	joins := make(chan dist.Conn, 1)
	joins <- jc

	sc := scenario(t, "Campus")
	sc.Engines = 4
	atResize := -1
	o, err := sc.Run(ctx, mapping.Top, core.Elastic([]dist.Conn{c}, dist.ElasticOptions{
		Options:          dist.Options{CheckpointEvery: elasticCkpt},
		Joins:            joins,
		EnginesPerWorker: 2,
		OnResize: func(ev emu.MembershipChange) ([]int, error) {
			// Both workers are parked at the barrier, Steppers up.
			atResize = desGoroutines()
			next := append([]int(nil), ev.Previous...)
			for v := range next {
				next[v] = ev.Engines[v%len(ev.Engines)]
			}
			return next, nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	first.wait(t, "initial worker")
	joiner.wait(t, "joiner")
	if len(o.Membership.Resizes) != 1 {
		t.Fatalf("the join must apply as one resize, got %+v", o.Membership.Resizes)
	}
	if atResize != 0 {
		t.Errorf("at the resize barrier: %d goroutines started by the kernel, want 0 (2 workers × 2 engines on the callers' goroutines)", atResize)
	}
	if n := desGoroutines(); n != 0 {
		t.Errorf("after every Serve returned: %d goroutines started by the kernel, want 0", n)
	}
	if n := settle(base); n > base {
		t.Errorf("after every Serve returned: %d goroutines, want at most %d", n, base)
	}
}
