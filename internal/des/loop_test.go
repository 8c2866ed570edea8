package des

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// The tests that pin the collapse of the window loop: every driver of the
// kernel — Run, Run stopped and resumed, the test-side reference-merge loop,
// and 1…n Stepper groups under a Grid-walking coordinator — must execute
// seeded random handler programs identically, a mid-run re-grid included.

// streamRec renders what a driver's barrier observed to lines: a grid line per
// window grid (the initial one, one after each membership change — the driver
// announces them, as the emulator does with RunMeta) and every window record.
type streamRec struct{ lines []string }

func (r *streamRec) grid(lookahead float64, resumed bool) {
	r.lines = append(r.lines, fmt.Sprintf("grid L=%v resumed=%v", lookahead, resumed))
}

func (r *streamRec) window(w *obs.Window) {
	r.lines = append(r.lines, fmt.Sprintf("win %d [%v,%v) ev=%v ch=%v rm=%v q=%v",
		w.Index, w.Start, w.End, w.Events, w.Charges, w.Remote, w.Queue))
}

// execution is everything deterministic one driver produced.
type execution struct {
	logs   [][]string // handler calls, per LP in execution order
	stats  Stats      // WallTime zeroed
	stream []string
}

func (x *execution) logger() func(lp int, tm float64, n int64) {
	return func(lp int, tm float64, n int64) {
		x.logs[lp] = append(x.logs[lp], fmt.Sprintf("t=%v n=%d", tm, n))
	}
}

// regridCase is one seeded program plus a mid-run membership change: at the
// first barrier at or after regridAt every pending event moves to the LP
// newOwner names and the lookahead halves.
type regridCase struct {
	numLPs   int
	L        float64
	seed     int64
	regridAt float64
}

func (c regridCase) newOwner(data any) int {
	return int(uint64(data.(int64)*31+7) % uint64(c.numLPs))
}

func (c regridCase) remap(ev Event[any]) (int, bool) { return c.newOwner(ev.Data), true }

// kernel builds the case's kernel, seeding only the LPs local marks (nil: all).
func (c regridCase) kernel(t *testing.T, x *execution, local []bool) *Kernel[any] {
	t.Helper()
	k, err := New(Config[any]{
		NumLPs: c.numLPs, Lookahead: c.L,
		Handler: cascadeHandler(c.numLPs, c.L, x.logger()),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range cascadeSeeds(c.numLPs, c.seed) {
		if local == nil || local[ev.LP] {
			if err := k.Schedule(ev.LP, ev.Time, ev.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	return k
}

func finish(x *execution, st *Stats, rec *streamRec) *execution {
	x.stats = st.Clone()
	x.stats.WallTime = 0
	x.stream = rec.lines
	return x
}

// runInPlace drives the case through Run (or, with reference set, the
// test-side reference-merge loop); the membership change happens inside the
// window hook, under the running loop.
func (c regridCase) runInPlace(t *testing.T, reference bool) *execution {
	t.Helper()
	x := &execution{logs: make([][]string, c.numLPs)}
	rec := &streamRec{}
	k := c.kernel(t, x, nil)
	done := false
	k.cfg.OnWindow = func(w *obs.Window) error {
		rec.window(w)
		if w.End < c.regridAt || done {
			return nil
		}
		done = true
		rec.grid(c.L/2, true)
		return k.Restore(k.Checkpoint(w.End), c.L/2, c.remap)
	}
	rec.grid(c.L, false)
	if reference {
		return finish(x, runReference(t, k), rec)
	}
	st, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	return finish(x, st, rec)
}

// runStopped drives the case through Run, stopping the run at the barrier of
// the membership change and performing it from outside before running again.
func (c regridCase) runStopped(t *testing.T) *execution {
	t.Helper()
	x := &execution{logs: make([][]string, c.numLPs)}
	rec := &streamRec{}
	k := c.kernel(t, x, nil)
	stop := errors.New("stop for the membership change")
	var cp *Checkpoint[any]
	k.cfg.OnWindow = func(w *obs.Window) error {
		rec.window(w)
		if w.End < c.regridAt || cp != nil {
			return nil
		}
		cp = k.Checkpoint(w.End)
		return stop
	}
	rec.grid(c.L, false)
	st, err := k.Run()
	if cp != nil {
		if !errors.Is(err, stop) {
			t.Fatalf("err = %v, want the window hook's stop", err)
		}
		if err := k.Restore(cp, c.L/2, c.remap); err != nil {
			t.Fatal(err)
		}
		rec.grid(c.L/2, true)
		st, err = k.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	return finish(x, st, rec)
}

// runGroups drives the case the way the distributed runtime does: groups
// kernels, each holding the LPs dealt to it round-robin behind a Stepper, and
// a coordinator loop that walks a Grid over their votes, sorts the merged
// outboxes with SortSent and hands each group its share through Inject. The
// membership change pulls every kernel's checkpoint apart (Export), routes
// each pending event to the group of its new owner in the global
// old-LP-major order, and reseats every group on a synthetic checkpoint
// (BuildCheckpoint, Restore, a new Stepper) — emu.DistMerge.Resize in small.
func (c regridCase) runGroups(t *testing.T, groups int) *execution {
	t.Helper()
	n := c.numLPs
	x := &execution{logs: make([][]string, n)}
	rec := &streamRec{}
	groupOf := make([]int, n)
	locals := make([][]int, groups)
	for lp := 0; lp < n; lp++ {
		groupOf[lp] = lp % groups
		locals[lp%groups] = append(locals[lp%groups], lp)
	}
	kernels := make([]*Kernel[any], groups)
	steppers := make([]*Stepper[any], groups)
	for g := range kernels {
		mine := make([]bool, n)
		for _, lp := range locals[g] {
			mine[lp] = true
		}
		kernels[g] = c.kernel(t, x, mine)
		st, err := kernels[g].Stepper(locals[g])
		if err != nil {
			t.Fatal(err)
		}
		steppers[g] = st
	}
	defer func() {
		for _, st := range steppers {
			st.Close()
		}
	}()

	total := newStats(n)
	grid := Grid{Lookahead: c.L}
	regridded := false
	win := obs.Window{Events: make([]int64, n), Charges: make([]int64, n), Remote: make([]int64, n), Queue: make([]int64, n)}
	rec.grid(c.L, false)
	for {
		minT, has := math.Inf(1), false
		for _, st := range steppers {
			if nt, ok := st.NextEventTime(); ok && nt < minT {
				minT, has = nt, true
			}
		}
		T, end, skipped, ok := grid.Next(minT, has)
		if !ok {
			break
		}
		total.SkippedTime += skipped
		var outbox []Sent[any]
		for g, st := range steppers {
			res, err := st.Step(T, end)
			if err != nil {
				t.Fatal(err)
			}
			for _, lp := range locals[g] {
				win.Events[lp], win.Charges[lp], win.Remote[lp], win.Queue[lp] =
					res.Events[lp], res.Charges[lp], res.Remote[lp], res.Queue[lp]
				total.Events[lp] += res.Events[lp]
				total.Charges[lp] += res.Charges[lp]
				total.RemoteSends[lp] += res.Remote[lp]
			}
			outbox = append(outbox, res.Outbox...)
		}
		SortSent(outbox)
		shares := make([][]Sent[any], groups)
		for _, sv := range outbox {
			shares[groupOf[sv.Dst]] = append(shares[groupOf[sv.Dst]], sv)
			win.Queue[sv.Dst]++ // Run reports post-merge depth
		}
		for g, st := range steppers {
			if err := st.Inject(shares[g]); err != nil {
				t.Fatal(err)
			}
		}
		win.Index, win.Start, win.End = total.Windows, T, end
		rec.window(&win)
		total.Windows++
		total.VirtualEnd = end

		if end < c.regridAt || regridded {
			continue
		}
		regridded = true
		rec.grid(c.L/2, true)
		var pending []Sent[any]
		for g, k := range kernels {
			steppers[g].Close()
			pending = append(pending, k.Checkpoint(end).Export()...)
		}
		sort.SliceStable(pending, func(i, j int) bool { return pending[i].Dst < pending[j].Dst })
		shares = make([][]Sent[any], groups)
		for _, sv := range pending {
			sv.Dst = c.newOwner(sv.Data)
			shares[groupOf[sv.Dst]] = append(shares[groupOf[sv.Dst]], sv)
		}
		for g, k := range kernels {
			cp, err := BuildCheckpoint(end, n, *total, shares[g])
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Restore(cp, c.L/2, nil); err != nil {
				t.Fatal(err)
			}
			if steppers[g], err = k.Stepper(locals[g]); err != nil {
				t.Fatal(err)
			}
		}
		grid.Regrid(c.L / 2)
	}
	for g, k := range kernels {
		if got := k.Stats(); got.Windows != total.Windows {
			t.Errorf("group %d counted %d windows, the coordinator %d", g, got.Windows, total.Windows)
		}
		for _, lp := range locals[g] {
			if got := k.Stats(); got.Events[lp] != total.Events[lp] || got.Charges[lp] != total.Charges[lp] ||
				got.RemoteSends[lp] != total.RemoteSends[lp] {
				t.Errorf("group %d LP %d: worker totals diverge from the coordinator's", g, lp)
			}
		}
	}
	return finish(x, total, rec)
}

// TestRunMatchesSteppedGroups: Run ≡ 1…n Stepper groups on the shared Grid ≡
// the reference-merge loop, on handler-call logs, Stats and the stream of
// window records — including a mid-run Checkpoint → Restore with a halved
// lookahead and every pending event remapped, performed inside the window hook
// of a running loop, after stopping the run, and across the groups' kernels.
func TestRunMatchesSteppedGroups(t *testing.T) {
	for i, c := range []regridCase{
		{numLPs: 2, L: 0.002, seed: 1, regridAt: 0.010},
		{numLPs: 3, L: 0.002, seed: 77, regridAt: 0.014},
		{numLPs: 4, L: 0.003, seed: 4242, regridAt: 0.012},
		{numLPs: 5, L: 0.002, seed: -9, regridAt: 0.008},
		{numLPs: 4, L: 0.002, seed: 31337, regridAt: math.Inf(1)}, // no membership change
	} {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			want := c.runInPlace(t, false)
			if want.stats.Windows < 4 || len(want.stream) < 5 {
				t.Fatalf("degenerate program: %d windows", want.stats.Windows)
			}
			regrids := 0
			for _, line := range want.stream {
				if strings.HasPrefix(line, "grid ") && strings.HasSuffix(line, "resumed=true") {
					regrids++
				}
			}
			if wantRegrids := map[bool]int{true: 0, false: 1}[math.IsInf(c.regridAt, 1)]; regrids != wantRegrids {
				t.Fatalf("program re-gridded %d times, want %d (membership change missed the run)", regrids, wantRegrids)
			}
			check := func(name string, got *execution) {
				t.Helper()
				if !reflect.DeepEqual(got.logs, want.logs) {
					t.Errorf("%s: handler-call logs diverge from Run", name)
				}
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Errorf("%s: stats diverge from Run\n got %+v\nwant %+v", name, got.stats, want.stats)
				}
				if !reflect.DeepEqual(got.stream, want.stream) {
					t.Errorf("%s: window-record stream diverges from Run", name)
				}
			}
			check("Run stopped for the membership change", c.runStopped(t))
			check("reference-merge loop", c.runInPlace(t, true))
			for g := 1; g <= c.numLPs; g++ {
				check(fmt.Sprintf("%d stepped groups", g), c.runGroups(t, g))
			}
		})
	}
}

// TestKernelStartsNoGoroutines: the kernel runs every window on the caller's
// goroutine — inside a running loop's window hook, under a Stepper over four
// LPs and under one reseated after a Restore — even where GOMAXPROCS leaves
// cores to spare. Close is idempotent, a closed Stepper refuses to Step, and
// Close releases the kernel for another Stepper.
func TestKernelStartsNoGoroutines(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	settled := func() int {
		// Goroutines of earlier tests may still be winding down.
		n := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(2 * time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				return n
			} else {
				n = m
			}
		}
		return n
	}
	base := settled()
	c := regridCase{numLPs: 4, L: 0.002, seed: 5, regridAt: math.Inf(1)}
	x := &execution{logs: make([][]string, c.numLPs)}

	k := c.kernel(t, x, nil)
	inHook := -1 // goroutines seen by the first window's hook
	k.cfg.OnWindow = func(*obs.Window) error {
		if inHook < 0 {
			inHook = runtime.NumGoroutine()
		}
		return nil
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if inHook != base {
		t.Errorf("inside OnWindow during Run: %d goroutines, want %d", inHook, base)
	}

	k = c.kernel(t, x, nil)
	st, err := k.Stepper([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("Stepper over 4 LPs: %d goroutines, want %d", n, base)
	}
	if _, err := st.Step(0, c.L); err != nil {
		t.Fatal(err)
	}
	cp := k.Checkpoint(c.L)
	st.Close()
	st.Close() // idempotent
	if _, err := st.Step(c.L, 2*c.L); err == nil {
		t.Error("Step on a closed Stepper must fail")
	}
	// Close released the kernel: a Restore can reseat it under a new Stepper.
	if err := k.Restore(cp, 0, nil); err != nil {
		t.Fatal(err)
	}
	st2, err := k.Stepper([]int{1, 3})
	if err != nil {
		t.Fatalf("Stepper after Close: %v", err)
	}
	defer st2.Close()
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("reseated Stepper over 2 LPs: %d goroutines, want %d", n, base)
	}
}

// TestStepperRejectsHostileWindows: Step and Inject check the conservative
// protocol's time invariants instead of assuming the coordinator keeps them.
func TestStepperRejectsHostileWindows(t *testing.T) {
	k := newPingKernel(t) // lookahead 1
	st, err := k.Stepper([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := st.Step(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Inject(res.Outbox); err != nil { // the ping, bound for LP 1 at t=1.5
		t.Fatal(err)
	}
	windows := k.stats.Windows
	for _, w := range []struct {
		name   string
		T, end float64
	}{
		{"end +Inf", 1, math.Inf(1)},
		{"end NaN", 1, math.NaN()},
		{"start NaN", math.NaN(), 2},
		{"negative start", -1, 0},
		{"end == start", 1, 1},
		{"end < start", 2, 1},
		{"start before the previous end", 0.5, 1.5},
		{"wider than the lookahead", 1, 2.5},
	} {
		if _, err := st.Step(w.T, w.end); !errors.Is(err, ErrCausality) {
			t.Errorf("%s: Step(%v, %v) = %v, want ErrCausality", w.name, w.T, w.end, err)
		}
	}
	if err := st.Inject([]Sent[any]{{Time: 1.5, Dst: 0}, {Time: 0.25, Dst: 1}}); !errors.Is(err, ErrCausality) {
		t.Errorf("inject before the executed window end = %v, want ErrCausality", err)
	}
	if err := st.Inject([]Sent[any]{{Time: math.NaN(), Dst: 0}}); !errors.Is(err, ErrCausality) {
		t.Errorf("inject at NaN = %v, want ErrCausality", err)
	}
	if k.stats.Windows != windows || k.queues[0].Len()+k.queues[1].Len() != 1 {
		t.Errorf("a rejected window or batch left a trace: %d windows, queues %d+%d",
			k.stats.Windows, k.queues[0].Len(), k.queues[1].Len())
	}
	// The honest continuation still works, slack included.
	if err := st.Inject([]Sent[any]{{Time: 1 - lookaheadSlack/2, Dst: 0, Data: pingPayload{}}}); err != nil {
		t.Errorf("inject within the lookahead slack: %v", err)
	}
	if _, err := st.Step(1, 2); err != nil {
		t.Errorf("honest next window: %v", err)
	}
}

// TestGridWalk pins the window-pick rule: first-window alignment without a
// skip, idle skips on the grid, the EndTime stop, and a fresh grid after
// Regrid.
func TestGridWalk(t *testing.T) {
	g := Grid{Lookahead: 1, EndTime: 100}
	type pick struct {
		start, end, skipped float64
		ok                  bool
	}
	next := func(at float64, pending bool) pick {
		s, e, k, ok := g.Next(at, pending)
		return pick{s, e, k, ok}
	}
	for _, step := range []struct {
		at      float64
		pending bool
		regrid  float64 // > 0: Regrid first
		want    pick
	}{
		{at: 5.5, pending: true, want: pick{5, 6, 0, true}},   // aligned, the idle start is not a skip
		{at: 6.2, pending: true, want: pick{6, 7, 0, true}},   // next window in sequence
		{at: 9.75, pending: true, want: pick{9, 10, 2, true}}, // idle [7,9) skipped
		{at: 9.9, pending: true, want: pick{10, 11, 0, true}}, // an event the window left behind: no step back
		{at: 12, pending: true, regrid: 0.5, want: pick{12, 12.5, 0, true}},
		{at: 14.3, pending: true, want: pick{14, 14.5, 1.5, true}},
		{at: 100, pending: true, want: pick{}}, // at EndTime
		{at: 50, pending: false, want: pick{}}, // nothing pending
	} {
		if step.regrid > 0 {
			g.Regrid(step.regrid)
		}
		if got := next(step.at, step.pending); got != step.want {
			t.Errorf("Next(%v, %v) = %+v, want %+v", step.at, step.pending, got, step.want)
		}
	}
	g.Regrid(0)
	if g.Lookahead != 0.5 {
		t.Errorf("Regrid(0) changed the lookahead to %v", g.Lookahead)
	}
}
