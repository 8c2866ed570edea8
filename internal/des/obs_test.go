package des

import (
	"testing"

	"repro/internal/obs"
)

// windowsTo is the smallest OnWindow hook: every window record goes to rec,
// with barrier wait measured where the kernel can (nil rec: no hook at all).
func windowsTo(cfg Config[any], rec obs.Recorder) Config[any] {
	if rec != nil {
		cfg.MeasureWait = true
		cfg.OnWindow = func(w *obs.Window) error {
			rec.RecordWindow(*w)
			return nil
		}
	}
	return cfg
}

// chainKernel builds a kernel where each LP processes a chain of events, one
// per tick, each event scheduling the next locally and charging one kernel
// event; every stride-th event also pings the neighbor LP.
func chainKernel(t testing.TB, numLPs int, events int, stride int, rec obs.Recorder, sequential bool) *Kernel[any] {
	t.Helper()
	type tick struct{ n int }
	k, err := New(windowsTo(Config[any]{
		NumLPs:     numLPs,
		Lookahead:  1,
		Sequential: sequential,
		Handler: func(lp int, now float64, data any, s *Scheduler[any]) {
			tk := data.(*tick)
			s.Charge(1)
			if tk.n <= 0 {
				return
			}
			s.Schedule(lp, now+1, &tick{n: tk.n - 1})
			if stride > 0 && tk.n%stride == 0 && numLPs > 1 {
				s.Schedule((lp+1)%numLPs, now+1, &tick{n: 0})
			}
		},
	}, rec))
	if err != nil {
		t.Fatal(err)
	}
	for lp := 0; lp < numLPs; lp++ {
		if err := k.Schedule(lp, 0, &tick{n: events}); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

// TestWindowRecordCounters checks the per-window records against the
// kernel's own cumulative statistics.
func TestWindowRecordCounters(t *testing.T) {
	for _, seq := range []bool{true, false} {
		stats := obs.NewRunStats()
		k := chainKernel(t, 3, 50, 10, stats, seq)
		st, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Windows != st.Windows {
			t.Errorf("seq=%v: recorded %d windows, kernel says %d", seq, stats.Windows, st.Windows)
		}
		for lp := 0; lp < 3; lp++ {
			if stats.Events[lp] != st.Events[lp] {
				t.Errorf("seq=%v: LP %d recorded events %d, kernel %d", seq, lp, stats.Events[lp], st.Events[lp])
			}
			if stats.Charges[lp] != st.Charges[lp] {
				t.Errorf("seq=%v: LP %d recorded charges %d, kernel %d", seq, lp, stats.Charges[lp], st.Charges[lp])
			}
			if stats.Remote[lp] != st.RemoteSends[lp] {
				t.Errorf("seq=%v: LP %d recorded remote %d, kernel %d", seq, lp, stats.Remote[lp], st.RemoteSends[lp])
			}
			if stats.MaxQueue[lp] < 1 {
				t.Errorf("seq=%v: LP %d max queue = %d, want >= 1", seq, lp, stats.MaxQueue[lp])
			}
		}
	}
}

// TestWindowRecordIsOneWindow: the one hook sees the counters, the post-merge
// queue depths and the barrier wait of the same window in one record. Every LP
// runs a countdown tick per window that charges lp+2 and pings its neighbour
// (1 charge, next window), so each field of each record is known in advance —
// a counter folded twice, or a slice filled a window late, shows at once.
func TestWindowRecordIsOneWindow(t *testing.T) {
	const numLPs, rounds = 3, 8
	var windows int64
	k, err := New(Config[any]{
		NumLPs: numLPs, Lookahead: 1, Sequential: true, MeasureWait: true,
		Handler: func(lp int, now float64, data any, s *Scheduler[any]) {
			n := data.(int)
			if n < 0 { // a neighbour's ping
				s.Charge(1)
				return
			}
			s.Charge(int64(lp) + 2)
			if n > 0 {
				s.Schedule(lp, now+1, n-1)
				s.Schedule((lp+1)%numLPs, now+1, -1)
			}
		},
		OnWindow: func(w *obs.Window) error {
			if w.Index != windows || w.Start != float64(windows) || w.End != w.Start+1 {
				t.Errorf("record %d is window %d [%v,%v)", windows, w.Index, w.Start, w.End)
			}
			pinged, pings := int64(min(windows, 1)), int64(min(rounds-windows, 1))
			for lp := 0; lp < numLPs; lp++ {
				if w.Events[lp] != 1+pinged || w.Charges[lp] != int64(lp)+2+pinged {
					t.Errorf("window %d LP %d: %d events, %d charges, want %d and %d",
						windows, lp, w.Events[lp], w.Charges[lp], 1+pinged, int64(lp)+2+pinged)
				}
				// Post-merge: the neighbour's ping is already queued beside the next tick.
				if w.Remote[lp] != pings || w.Queue[lp] != 2*pings {
					t.Errorf("window %d LP %d: %d remote, %d queued, want %d and %d",
						windows, lp, w.Remote[lp], w.Queue[lp], pings, 2*pings)
				}
				if w.Wait[lp] != 0 {
					t.Errorf("window %d LP %d: waited %gs at a barrier a sequential run does not have",
						windows, lp, w.Wait[lp])
				}
			}
			windows++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for lp := 0; lp < numLPs; lp++ {
		if err := k.Schedule(lp, 0.5, rounds); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if windows != rounds+1 {
		t.Errorf("the hook saw %d windows, want %d", windows, rounds+1)
	}
}

// TestWaitMeasuredOnlyOnWorkers: barrier wait exists only where LPs run on
// workers, so only there does the kernel read the clock for it. A Sequential
// run, a single-LP run and a GOMAXPROCS=1 run leave the Stepper untimed and
// deliver all-zero Wait however loudly MeasureWait asks; the worker dispatch
// times its windows and delivers the wait — unless nobody asked.
func TestWaitMeasuredOnlyOnWorkers(t *testing.T) {
	for _, tc := range []struct {
		name            string
		lps, procs      int
		sequential, ask bool
		timed           bool
	}{
		{"sequential", 3, 4, true, true, false},
		{"single LP", 1, 4, false, true, false},
		{"GOMAXPROCS=1", 3, 1, false, true, false},
		{"workers, nobody reads wait", 3, 4, false, false, false},
		{"workers", 3, 4, false, true, true},
	} {
		var k *Kernel[any]
		var windows int
		var waited float64
		hook := func(w *obs.Window) error {
			windows++
			if k.driver.timing != tc.timed {
				t.Errorf("%s: Stepper timing = %v, want %v", tc.name, k.driver.timing, tc.timed)
			}
			for _, s := range w.Wait {
				waited += s
			}
			return nil
		}
		k, _ = New(Config[any]{
			NumLPs: tc.lps, Lookahead: 1, Sequential: tc.sequential, MeasureWait: tc.ask, OnWindow: hook,
			Handler: func(lp int, now float64, data any, s *Scheduler[any]) {
				if n := data.(int); n > 0 {
					s.Schedule(lp, now+1, n-1)
				}
			},
		})
		for lp := 0; lp < tc.lps; lp++ {
			k.Schedule(lp, 0, 20)
		}
		var err error
		atGOMAXPROCS(tc.procs, func() { _, err = k.Run() })
		if err != nil || windows != 21 {
			t.Fatalf("%s: %d windows, err %v", tc.name, windows, err)
		}
		if (waited > 0) != tc.timed {
			t.Errorf("%s: total barrier wait %gs, timed = %v", tc.name, waited, tc.timed)
		}
	}
}

// TestNilRecorderZeroAllocsPerEvent is the acceptance gate for the no-op
// observability path: with no OnWindow hook, the kernel must not allocate per
// event. The chain workload keeps every queue at constant depth, so a run's
// allocations are fixed setup costs; per-event allocations would scale the
// total with the event count and trip the bound.
func TestNilRecorderZeroAllocsPerEvent(t *testing.T) {
	const events = 5000
	type tick struct{ n int }
	payloads := make([]*tick, 2) // pre-allocated, reused via pointer payloads
	handler := func(lp int, now float64, data any, s *Scheduler[any]) {
		tk := data.(*tick)
		s.Charge(1)
		if tk.n > 0 {
			tk.n--
			s.Schedule(lp, now+1, tk)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		k, err := New(Config[any]{NumLPs: 2, Lookahead: 1, Sequential: true, Handler: handler})
		if err != nil {
			t.Fatal(err)
		}
		for lp := 0; lp < 2; lp++ {
			payloads[lp] = &tick{n: events}
			if err := k.Schedule(lp, 0, payloads[lp]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	// 2 LPs x 5000 events with ~40 fixed setup allocations: anything per-
	// event would add thousands.
	if allocs > 100 {
		t.Errorf("hookless run allocated %.0f times for %d events (> 100: not allocation-free per event)",
			allocs, 2*events)
	}
}

// BenchmarkKernelNopRecorder measures the kernel hot path with observability
// disabled — the baseline the recorder-enabled path is compared against.
func BenchmarkKernelNopRecorder(b *testing.B) {
	benchKernel(b, nil)
}

// BenchmarkKernelRunStats measures the same workload with the aggregating
// collector attached.
func BenchmarkKernelRunStats(b *testing.B) {
	benchKernel(b, obs.NewRunStats())
}

func benchKernel(b *testing.B, rec obs.Recorder) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := chainKernel(b, 4, 2000, 50, rec, false)
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
