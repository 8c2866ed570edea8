package des

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestNewValidation(t *testing.T) {
	h := func(int, float64, any, *Scheduler[any]) {}
	if _, err := New(Config[any]{NumLPs: 0, Lookahead: 1, Handler: h}); err == nil {
		t.Error("NumLPs=0 accepted")
	}
	if _, err := New(Config[any]{NumLPs: 1, Lookahead: 0, Handler: h}); err == nil {
		t.Error("Lookahead=0 accepted")
	}
	if _, err := New(Config[any]{NumLPs: 1, Lookahead: 1}); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := New(Config[any]{NumLPs: 1, Lookahead: 1, Handler: h}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestScheduleValidation(t *testing.T) {
	k, _ := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: func(int, float64, any, *Scheduler[any]) {}})
	if err := k.Schedule(5, 0, nil); err == nil {
		t.Error("invalid LP accepted")
	}
	if err := k.Schedule(0, -1, nil); err == nil {
		t.Error("negative time accepted")
	}
	if err := k.Schedule(1, 0.5, nil); err != nil {
		t.Errorf("valid initial event rejected: %v", err)
	}
}

// TestNaNTimeRejected: NaN compares false with everything, so a "t < now"
// guard lets it through and the queue's order is gone. An initial event at NaN
// is refused; a handler scheduling one, local or remote, poisons the run the
// way an event in the past does, and nothing at NaN is ever enqueued.
func TestNaNTimeRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		dst  int // of the NaN event LP 0's handler schedules; -1: initial event
	}{{"initial", -1}, {"local", 0}, {"remote", 1}} {
		k, _ := New(Config[any]{NumLPs: 2, Lookahead: 1, Sequential: true, Handler: func(lp int, tm float64, data any, s *Scheduler[any]) {
			if data != nil {
				s.Schedule(data.(int), math.NaN(), nil)
			}
		}})
		if tc.dst < 0 {
			if err := k.Schedule(0, math.NaN(), nil); err == nil {
				t.Errorf("%s: NaN initial event accepted", tc.name)
			}
		} else {
			k.Schedule(0, 0.5, tc.dst)
			if _, err := k.Run(); err == nil || !strings.Contains(err.Error(), "scheduled event in the past") {
				t.Errorf("%s: NaN event from a handler: err = %v, want the event-in-the-past error", tc.name, err)
			}
		}
		if n := k.queues[0].Len() + k.queues[1].Len(); n != 0 {
			t.Errorf("%s: %d events left pending, want 0", tc.name, n)
		}
	}
}

// TestEventOrdering verifies events on one LP execute in timestamp order,
// including events scheduled mid-window.
func TestEventOrdering(t *testing.T) {
	var times []float64
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		times = append(times, tm)
		if data == "spawn" {
			// Schedule a local event inside the current window.
			s.Schedule(lp, tm+0.1, "child")
		}
	}
	k, _ := New(Config[any]{NumLPs: 1, Lookahead: 10, Handler: h, Sequential: true})
	k.Schedule(0, 3.0, nil)
	k.Schedule(0, 1.0, "spawn")
	k.Schedule(0, 2.0, nil)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0, 1.1, 2.0, 3.0}
	if len(times) != len(want) {
		t.Fatalf("executed %v, want %v", times, want)
	}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Fatalf("executed %v, want %v", times, want)
		}
	}
}

// TestCausality is the core safety property: no handler ever observes time
// going backwards on its LP, in parallel mode, with cross-LP traffic.
func TestCausality(t *testing.T) {
	const numLPs = 4
	const L = 0.010
	lastTime := make([]float64, numLPs)
	var violations int64
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		if tm < lastTime[lp]-1e-12 {
			atomic.AddInt64(&violations, 1)
		}
		lastTime[lp] = tm
		s.Charge(1)
		hop := data.(int)
		if hop >= 0 && hop < 200 {
			// Ping-pong to the next LP, respecting lookahead.
			s.Schedule((lp+1)%numLPs, tm+L, hop+1)
			// And a non-spawning local follow-up inside the window.
			s.Schedule(lp, tm+L/7, -1)
		}
	}
	k, _ := New(Config[any]{NumLPs: numLPs, Lookahead: L, Handler: h})
	for lp := 0; lp < numLPs; lp++ {
		k.Schedule(lp, 0.001*float64(lp+1), 0)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("%d causality violations", violations)
	}
	if stats.TotalCharges() == 0 {
		t.Error("no charges accounted")
	}
}

// TestLookaheadViolationDetected: a remote event inside the current window
// must poison the run.
func TestLookaheadViolationDetected(t *testing.T) {
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		if lp == 0 {
			s.Schedule(1, tm+1e-9, nil) // far below lookahead 1.0
		}
	}
	k, _ := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: h})
	k.Schedule(0, 0, nil)
	if _, err := k.Run(); err == nil {
		t.Fatal("lookahead violation not detected")
	}
}

func TestPastEventDetected(t *testing.T) {
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		s.Schedule(lp, tm-1, nil)
	}
	k, _ := New(Config[any]{NumLPs: 1, Lookahead: 1, Handler: h})
	k.Schedule(0, 5, nil)
	if _, err := k.Run(); err == nil {
		t.Fatal("past event not detected")
	}
}

func TestInvalidRemoteLPDetected(t *testing.T) {
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		s.Schedule(99, tm+10, nil)
	}
	k, _ := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: h})
	k.Schedule(0, 0, nil)
	if _, err := k.Run(); err == nil {
		t.Fatal("invalid remote LP not detected")
	}
}

// TestDeterminismParallelVsSequential runs the same workload both ways and
// compares full stats: the parallel barrier protocol must not change results.
func TestDeterminismParallelVsSequential(t *testing.T) {
	build := func(sequential bool) *Stats {
		// A small deterministic multi-LP cascade.
		h := func(lp int, tm float64, data any, s *Scheduler[any]) {
			n := data.(int)
			s.Charge(int64(n%7) + 1)
			if n < 500 {
				dst := (lp + n) % 5
				if dst == lp {
					s.Schedule(lp, tm+0.0003, n+1)
				} else {
					s.Schedule(dst, tm+0.002+0.0001*float64(n%5), n+1)
				}
			}
		}
		k, _ := New(Config[any]{NumLPs: 5, Lookahead: 0.002, Handler: h, Sequential: sequential})
		for lp := 0; lp < 5; lp++ {
			k.Schedule(lp, 0.0001*float64(lp), lp)
		}
		st, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	seq := build(true)
	par := build(false)
	if seq.Windows != par.Windows {
		t.Errorf("windows: seq %d vs par %d", seq.Windows, par.Windows)
	}
	for lp := 0; lp < 5; lp++ {
		if seq.Events[lp] != par.Events[lp] {
			t.Errorf("LP %d events: seq %d vs par %d", lp, seq.Events[lp], par.Events[lp])
		}
		if seq.Charges[lp] != par.Charges[lp] {
			t.Errorf("LP %d charges: seq %d vs par %d", lp, seq.Charges[lp], par.Charges[lp])
		}
		if seq.RemoteSends[lp] != par.RemoteSends[lp] {
			t.Errorf("LP %d remote: seq %d vs par %d", lp, seq.RemoteSends[lp], par.RemoteSends[lp])
		}
	}
}

// TestWindowSkip: long idle gaps must be jumped, not iterated.
func TestWindowSkip(t *testing.T) {
	h := func(lp int, tm float64, data any, s *Scheduler[any]) { s.Charge(1) }
	k, _ := New(Config[any]{NumLPs: 1, Lookahead: 0.001, Handler: h})
	k.Schedule(0, 0, nil)
	k.Schedule(0, 100.0, nil) // 100k windows away
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows > 3 {
		t.Errorf("executed %d windows, want <= 3 (idle time must be skipped)", stats.Windows)
	}
	if stats.SkippedTime < 99 {
		t.Errorf("SkippedTime = %v, want ~100", stats.SkippedTime)
	}
}

func TestEndTime(t *testing.T) {
	var count int64
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		count++
		s.Schedule(lp, tm+1, nil)
	}
	k, _ := New(Config[any]{NumLPs: 1, Lookahead: 0.5, Handler: h, EndTime: 10})
	k.Schedule(0, 0, nil)
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if count < 9 || count > 11 {
		t.Errorf("executed %d events, want ~10", count)
	}
	if stats.VirtualEnd > 10.5+1e-9 {
		t.Errorf("VirtualEnd = %v, want <= ~10.5", stats.VirtualEnd)
	}
}

// TestOnWindow checks the per-window hook sees every window once, in order,
// with loads that sum to the totals.
func TestOnWindow(t *testing.T) {
	var obsWindows int64
	var obsCharges, obsRemote int64
	hook := func(w *obs.Window) error {
		if w.Index != obsWindows {
			t.Errorf("window record %d carries index %d", obsWindows, w.Index)
		}
		obsWindows++
		if w.End <= w.Start {
			t.Errorf("window [%v,%v) not positive", w.Start, w.End)
		}
		for _, c := range w.Charges {
			obsCharges += c
		}
		for _, r := range w.Remote {
			obsRemote += r
		}
		return nil
	}
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		n := data.(int)
		s.Charge(3)
		if n < 50 {
			s.Schedule(1-lp, tm+0.01, n+1)
		}
	}
	k, _ := New(Config[any]{NumLPs: 2, Lookahead: 0.01, Handler: h, OnWindow: hook})
	k.Schedule(0, 0, 0)
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if obsWindows != stats.Windows {
		t.Errorf("hook saw %d windows, stats say %d", obsWindows, stats.Windows)
	}
	if obsCharges != stats.TotalCharges() {
		t.Errorf("hook charges %d, stats %d", obsCharges, stats.TotalCharges())
	}
	var totalRemote int64
	for _, r := range stats.RemoteSends {
		totalRemote += r
	}
	if obsRemote != totalRemote {
		t.Errorf("hook remote %d, stats %d", obsRemote, totalRemote)
	}
}

// TestSimultaneousEventsDeterministic: events at identical times execute in
// insertion order per LP.
func TestSimultaneousEventsDeterministic(t *testing.T) {
	var order []int
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		order = append(order, data.(int))
	}
	k, _ := New(Config[any]{NumLPs: 1, Lookahead: 1, Handler: h, Sequential: true})
	for i := 0; i < 10; i++ {
		k.Schedule(0, 1.0, i)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want insertion order", order)
		}
	}
}

func TestEmptyRun(t *testing.T) {
	k, _ := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: func(int, float64, any, *Scheduler[any]) {}})
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != 0 {
		t.Errorf("empty run executed %d windows", stats.Windows)
	}
}

// TestManyLPsParallelSmoke exercises the barrier with more LPs than cores.
func TestManyLPsParallelSmoke(t *testing.T) {
	const numLPs = 20
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		n := data.(int)
		s.Charge(1)
		if n < 100 {
			s.Schedule((lp+7)%numLPs, tm+0.005, n+1)
		}
	}
	k, _ := New(Config[any]{NumLPs: numLPs, Lookahead: 0.005, Handler: h})
	for lp := 0; lp < numLPs; lp++ {
		k.Schedule(lp, 0, 0)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range stats.Events {
		total += e
	}
	if total != numLPs*101 {
		t.Errorf("total events = %d, want %d", total, numLPs*101)
	}
}
