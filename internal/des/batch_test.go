package des

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/obs"
)

// mergeOutboxesReference is the pre-batching barrier: tag every event with
// (source, send order), sort the whole window globally by (time, source LP,
// send order), and insert in that one global sequence. It left production
// when the window loop was collapsed and is kept, verbatim, as the testing
// oracle the per-destination merge is verified against.
func (k *Kernel[P]) mergeOutboxesReference(scheds []*Scheduler[P]) {
	type tagged struct {
		time   float64
		dst    int
		src    int
		srcIdx int32
		data   P
	}
	var all []tagged
	for _, s := range scheds {
		for _, b := range s.batches {
			for i := range b.Times {
				all = append(all, tagged{
					time: b.Times[i], dst: b.Dst, src: s.lp,
					srcIdx: b.SrcIdx[i], data: b.Datas[i],
				})
			}
			s.batchAt[b.Dst] = nil
			b.reset()
		}
		s.batches = s.batches[:0]
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.time != b.time {
			return a.time < b.time
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.srcIdx < b.srcIdx
	})
	for _, t := range all {
		if err := k.push(t.dst, t.time, t.data, phaseArrival); err != nil {
			panic(err)
		}
	}
}

// runReference is the test-side window loop: the kernel's own Grid and the
// Stepper's dispatch, with the global-sort merge at the barrier instead of
// the per-destination one. It hands the kernel's OnWindow hook the window's
// record the way Run does (wall-clock Wait left zero), so a reference
// execution can be compared with Run on everything deterministic.
func runReference(t *testing.T, k *Kernel[any]) *Stats {
	t.Helper()
	n := k.cfg.NumLPs
	all := make([]int, n)
	for lp := range all {
		all[lp] = lp
	}
	st, err := k.Stepper(all)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for {
		T, end, skipped, ok := k.grid.Next(st.NextEventTime())
		if !ok {
			return k.stats
		}
		k.stats.SkippedTime += skipped
		if err := st.exec(end); err != nil {
			t.Fatal(err)
		}
		k.mergeOutboxesReference(st.scheds)
		res := st.fold(end)
		if k.cfg.OnWindow == nil {
			continue
		}
		for lp := 0; lp < n; lp++ {
			res.Queue[lp] = int64(k.queues[lp].Len())
		}
		if err := k.cfg.OnWindow(&obs.Window{
			Index: k.stats.Windows - 1, Start: T, End: end,
			Events: res.Events, Charges: res.Charges, Remote: res.Remote,
			Queue: res.Queue,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// crossTrafficHandler builds a handler that bounces events between LPs with
// heavy timestamp collisions: every event at time t on LP lp re-sends to two
// other LPs at exactly the next window boundary, so each barrier merges
// simultaneous events from multiple sources and the (time, src, srcIdx)
// tiebreak decides every insertion. The per-LP logs capture execution order.
func crossTrafficHandler(numLPs int, L float64, logs [][]string) Handler[any] {
	return func(lp int, t float64, data any, s *Scheduler[any]) {
		hop := data.(int)
		logs[lp] = append(logs[lp], fmt.Sprintf("t=%.3f hop=%d", t, hop))
		s.Charge(1)
		if hop == 0 {
			return
		}
		// Two remote fan-outs at the identical timestamp plus a local echo:
		// the remote pair lands simultaneously with other LPs' sends.
		next := s.windowEnd
		s.Schedule((lp+1)%numLPs, next, hop-1)
		s.Schedule((lp+2)%numLPs, next, hop-1)
		s.Schedule(lp, t+L/4, 0)
	}
}

// runCrossTraffic executes the collision-heavy scenario — through Run, or
// through the reference loop — and returns the per-LP execution logs plus
// final stats.
func runCrossTraffic(t *testing.T, numLPs int, reference bool) ([][]string, *Stats) {
	t.Helper()
	const L = 0.01
	logs := make([][]string, numLPs)
	k, err := New(Config[any]{
		NumLPs:    numLPs,
		Lookahead: L,
		Handler:   crossTrafficHandler(numLPs, L, logs),
	})
	if err != nil {
		t.Fatal(err)
	}
	for lp := 0; lp < numLPs; lp++ {
		if err := k.Schedule(lp, 0.001*float64(lp+1), 6); err != nil {
			t.Fatal(err)
		}
	}
	if reference {
		return logs, runReference(t, k)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	return logs, stats
}

// TestBarrierMergeMatchesReference is the determinism oracle for the pooled
// per-destination barrier merge: under heavy timestamp collisions, the
// batched merge must execute event-for-event identically to the pre-batching
// global (time, source LP, send order) sort.
func TestBarrierMergeMatchesReference(t *testing.T) {
	const numLPs = 5
	refLogs, refStats := runCrossTraffic(t, numLPs, true)
	logs, stats := runCrossTraffic(t, numLPs, false)
	if !reflect.DeepEqual(logs, refLogs) {
		t.Error("execution order diverged from the reference barrier")
	}
	if !reflect.DeepEqual(stats.Events, refStats.Events) ||
		!reflect.DeepEqual(stats.Charges, refStats.Charges) ||
		!reflect.DeepEqual(stats.RemoteSends, refStats.RemoteSends) ||
		stats.Windows != refStats.Windows {
		t.Error("stats diverged from the reference barrier")
	}
}

// TestWindowRecordBuffersAreRecycled pins the buffer contract obs.Window's
// doc comment promises: every slice of the record handed to the OnWindow hook
// is one of the kernel's recycled per-window buffers — the same backing arrays
// every window — so a hook must consume them before returning and must not
// retain a reference.
func TestWindowRecordBuffersAreRecycled(t *testing.T) {
	const numLPs = 3
	const L = 0.01
	var (
		windows      int
		first        obs.Window
		firstCharges []int64 // illustrative retained reference (read only at the end)
	)
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		s.Charge(int64(lp) + 1)
		if hop := data.(int); hop > 0 {
			s.Schedule((lp+1)%numLPs, s.windowEnd, hop-1)
		}
	}
	k, err := New(Config[any]{
		NumLPs:    numLPs,
		Lookahead: L,
		Handler:   h,
		OnWindow: func(w *obs.Window) error {
			if w.Cost != nil {
				t.Error("the kernel filled Cost; pricing a window is the caller's")
			}
			if windows == 0 {
				first, firstCharges = *w, w.Charges
			} else if &w.Events[0] != &first.Events[0] || &w.Charges[0] != &first.Charges[0] ||
				&w.Remote[0] != &first.Remote[0] || &w.Queue[0] != &first.Queue[0] {
				t.Error("window record buffers were reallocated; the recycled-buffer contract changed")
			}
			windows++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for lp := 0; lp < numLPs; lp++ {
		if err := k.Schedule(lp, 0.001, 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if windows < 2 {
		t.Fatalf("scenario executed %d windows, need >= 2 to observe recycling", windows)
	}
	// The footgun the contract documents: a retained slice does not hold the
	// first window's values — it aliases the live buffer and now shows the
	// last window's.
	if firstCharges[0] != 1 { // LP 0 charges 1 per event; last window has one event on some LP
		t.Logf("retained slice now shows later-window data (expected): %v", firstCharges)
	}
}

// TestBarrierSteadyStateAllocs verifies the owned-batch barrier and the SoA
// queues reach a zero-allocation steady state: the same run — a
// constant population of tokens, each hop one cross-LP send and one local
// echo — is cut at two virtual times, and the windows the later cut adds
// allocate nothing. A per-event or per-barrier allocation would show as at
// least one malloc per added window.
func TestBarrierSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own schedule: an exact allocation count flickers by two")
	}
	const numLPs = 4
	const L = 0.01
	// Payloads are ints below 256, which box without allocating, so every
	// allocation counted is the kernel's own.
	h := func(lp int, t float64, data any, s *Scheduler[any]) {
		s.Charge(1)
		if v := data.(int); v < 128 {
			s.Schedule((lp+1+v%2)%numLPs, s.windowEnd, v)
			s.Schedule(lp, t+L/4, 128+v)
		}
	}
	// Allocations by other goroutines of the process (the runtime's, a test
	// running beside this one) only ever add to the count, so each cut is
	// the least of several trials.
	run := func(end float64) (mallocs float64, windows int64) {
		mallocs = math.Inf(1)
		for trial := 0; trial < 5; trial++ {
			mallocs = min(mallocs, testing.AllocsPerRun(1, func() {
				k, err := New(Config[any]{NumLPs: numLPs, Lookahead: L, Handler: h, EndTime: end})
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < 4*numLPs; v++ {
					if err := k.Schedule(v%numLPs, 0.001*float64(v+1), v); err != nil {
						t.Fatal(err)
					}
				}
				stats, err := k.Run()
				if err != nil {
					t.Fatal(err)
				}
				windows = stats.Windows
			}))
		}
		return mallocs, windows
	}
	m1, w1 := run(2)
	m2, w2 := run(6)
	if w2-w1 < 300 {
		t.Fatalf("the later cut adds %d windows, want at least 300", w2-w1)
	}
	if m2 != m1 {
		t.Errorf("%d windows: %.0f mallocs; %d windows: %.0f mallocs — the added windows allocated", w1, m1, w2, m2)
	}
}
