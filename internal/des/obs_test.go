package des

import (
	"testing"

	"repro/internal/obs"
)

// windowsTo is the smallest OnWindow hook: every window record goes to rec
// (nil rec: no hook at all).
func windowsTo(cfg Config[any], rec obs.Recorder) Config[any] {
	if rec != nil {
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
func chainKernel(t testing.TB, numLPs int, events int, stride int, rec obs.Recorder) *Kernel[any] {
	t.Helper()
	type tick struct{ n int }
	k, err := New(windowsTo(Config[any]{
		NumLPs:    numLPs,
		Lookahead: 1,
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

// windowTotals sums the window records it receives, per LP, the way a
// consumer of the record stream would.
type windowTotals struct {
	windows                           int64
	events, charges, remote, maxQueue []int64
}

func (s *windowTotals) RecordRun(obs.RunMeta) {}
func (s *windowTotals) RecordEvent(obs.Event) {}
func (s *windowTotals) RecordWindow(w obs.Window) {
	if s.events == nil {
		n := len(w.Events)
		s.events, s.charges, s.remote, s.maxQueue = make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	}
	s.windows++
	for lp := range w.Events {
		s.events[lp] += w.Events[lp]
		s.charges[lp] += w.Charges[lp]
		s.remote[lp] += w.Remote[lp]
		s.maxQueue[lp] = max(s.maxQueue[lp], w.Queue[lp])
	}
}

// TestWindowRecordCounters checks the per-window records against the
// kernel's own cumulative statistics.
func TestWindowRecordCounters(t *testing.T) {
	stats := &windowTotals{}
	k := chainKernel(t, 3, 50, 10, stats)
	st, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.windows != st.Windows {
		t.Errorf("recorded %d windows, kernel says %d", stats.windows, st.Windows)
	}
	for lp := 0; lp < 3; lp++ {
		if stats.events[lp] != st.Events[lp] {
			t.Errorf("LP %d recorded events %d, kernel %d", lp, stats.events[lp], st.Events[lp])
		}
		if stats.charges[lp] != st.Charges[lp] {
			t.Errorf("LP %d recorded charges %d, kernel %d", lp, stats.charges[lp], st.Charges[lp])
		}
		if stats.remote[lp] != st.RemoteSends[lp] {
			t.Errorf("LP %d recorded remote %d, kernel %d", lp, stats.remote[lp], st.RemoteSends[lp])
		}
		if stats.maxQueue[lp] < 1 {
			t.Errorf("LP %d max queue = %d, want >= 1", lp, stats.maxQueue[lp])
		}
	}
}

// TestWindowRecordIsOneWindow: the one hook sees the counters and the
// post-merge queue depths of the same window in one record. Every LP
// runs a countdown tick per window that charges lp+2 and pings its neighbour
// (1 charge, next window), so each field of each record is known in advance —
// a counter folded twice, or a slice filled a window late, shows at once.
func TestWindowRecordIsOneWindow(t *testing.T) {
	const numLPs, rounds = 3, 8
	var windows int64
	k, err := New(Config[any]{
		NumLPs: numLPs, Lookahead: 1,
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
		k, err := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: handler})
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
// disabled.
func BenchmarkKernelNopRecorder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := chainKernel(b, 4, 2000, 50, nil)
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
