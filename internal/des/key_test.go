package des

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/obs"
)

// The provenance key's contract, each case checked against the global-sort
// oracle (runReference) and against an execution order written out by hand,
// so a key that reorders both the same way still fails.

// scripted is a payload that names itself and lists the pushes its execution
// makes: to is the destination LP (-1: its own), at the firing time.
type scripted struct {
	name string
	then []hop
}

type hop struct {
	to int
	at float64
	ev *scripted
}

// scriptHandler logs "name@w" per executed event — w the index of the
// executing window on a grid of width 1 — and makes the event's pushes.
func scriptHandler(logs [][]string) Handler[any] {
	return func(lp int, t float64, data any, s *Scheduler[any]) {
		ev := data.(*scripted)
		logs[lp] = append(logs[lp], fmt.Sprintf("%s@%d", ev.name, int(math.Round(s.windowEnd))-1))
		for _, h := range ev.then {
			to := h.to
			if to < 0 {
				to = lp
			}
			s.Schedule(to, h.at, h.ev)
		}
	}
}

// runScript runs a two-LP script with lookahead 1 through Run, or through
// the oracle, and returns the per-LP logs. seed lists the initial events per
// LP; onWindow, if non-nil, is the kernel's hook.
func runScript(t *testing.T, seed [][]hop, onWindow func(k *Kernel[any], w *obs.Window) error, reference bool) [][]string {
	t.Helper()
	logs := make([][]string, len(seed))
	var k *Kernel[any]
	cfg := Config[any]{NumLPs: len(seed), Lookahead: 1, Handler: scriptHandler(logs)}
	if onWindow != nil {
		cfg.OnWindow = func(w *obs.Window) error { return onWindow(k, w) }
	}
	k, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lp, hs := range seed {
		for _, h := range hs {
			if err := k.Schedule(lp, h.at, h.ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if reference {
		runReference(t, k)
	} else if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return logs
}

// checkScript runs the script both ways and compares each with want.
func checkScript(t *testing.T, seed [][]hop, onWindow func(k *Kernel[any], w *obs.Window) error, want [][]string) {
	t.Helper()
	for _, reference := range []bool{false, true} {
		if got := runScript(t, seed, onWindow, reference); !reflect.DeepEqual(got, want) {
			t.Errorf("reference=%v: execution\n got %q\nwant %q", reference, got, want)
		}
	}
}

func leaf(name string) *scripted { return &scripted{name: name} }

// TestShortSendRunsNextWindow: a remote send landing within lookaheadSlack
// short of the window end (t < end) is not popped by its destination in the
// window it was sent in, even when that LP runs later in the window; it runs
// first in the next one. At the window end itself an LP's own push precedes
// an arrival.
func TestShortSendRunsNextWindow(t *testing.T) {
	short := 1 - lookaheadSlack/2
	seed := [][]hop{
		{{at: 0.5, ev: &scripted{name: "a", then: []hop{
			{to: 1, at: short, ev: leaf("short")},
			{to: 1, at: 1, ev: leaf("edge")},
			{to: -1, at: 1, ev: leaf("echo0")},
		}}}},
		{{at: 0.6, ev: &scripted{name: "b", then: []hop{
			{to: -1, at: 1, ev: leaf("echo1")},
			{to: 0, at: 1, ev: leaf("edge1")},
		}}}},
	}
	checkScript(t, seed, nil, [][]string{
		{"a@0", "echo0@1", "edge1@1"},
		{"b@0", "short@1", "echo1@1", "edge@1"},
	})
}

// TestKeyOrderAcrossRestore: an equal-timestamp storm across a Restore inside
// OnWindow that moves every event onto LP 0, followed by Kernel.Schedule
// pushes in the hook and by the next windows' sends. Restore reinserts in
// (LP, time, key) order, the hook's pushes follow it, and after it each window
// again puts an LP's own pushes before arrivals.
func TestKeyOrderAcrossRestore(t *testing.T) {
	fan := func(name string) *scripted { // an own push and a send to LP 1, both at 2
		return &scripted{name: name, then: []hop{
			{to: 1, at: 2, ev: leaf(name + ".r")},
			{to: -1, at: 2, ev: leaf(name + ".l")},
		}}
	}
	seed := [][]hop{
		{{at: 0.5, ev: &scripted{name: "a", then: []hop{
			{to: 1, at: 1, ev: fan("y0")},
			{to: -1, at: 1, ev: fan("x0")},
		}}}},
		{{at: 0.5, ev: &scripted{name: "b", then: []hop{
			{to: -1, at: 1, ev: fan("x1")},
			{to: 0, at: 1, ev: fan("y1")},
		}}}},
	}
	hook := func(k *Kernel[any], w *obs.Window) error {
		if w.Index != 0 {
			return nil
		}
		cp := k.Checkpoint(w.End)
		if err := k.Restore(cp, 0, func(Event[any]) (int, bool) { return 0, true }); err != nil {
			return err
		}
		for _, name := range []string{"z0", "z1"} {
			if err := k.Schedule(0, 1, fan(name)); err != nil {
				return err
			}
		}
		return nil
	}
	// Window 1, all on LP 0: LP 0's queue (own x0, then arrival y1), LP 1's
	// (own x1, then arrival y0), then the hook's z0, z1. Window 2: LP 0's own
	// pushes in push order; LP 1 has only arrivals.
	checkScript(t, seed, hook, [][]string{
		{"a@0", "x0@1", "y1@1", "x1@1", "y0@1", "z0@1", "z1@1",
			"x0.l@2", "y1.l@2", "x1.l@2", "y0.l@2", "z0.l@2", "z1.l@2"},
		{"b@0", "x0.r@2", "y1.r@2", "x1.r@2", "y0.r@2", "z0.r@2", "z1.r@2"},
	})
}

// TestInjectMatchesDirectPath: a coordinator's path — Step every LP, sort the
// outbox by (time, Src, SrcIdx), Inject — executes the collision-heavy
// scenario event-for-event as Run's direct sends and the oracle do.
func TestInjectMatchesDirectPath(t *testing.T) {
	const numLPs, L = 5, 0.01
	logs := make([][]string, numLPs)
	k, err := New(Config[any]{NumLPs: numLPs, Lookahead: L, Handler: crossTrafficHandler(numLPs, L, logs)})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, numLPs)
	for lp := range all {
		all[lp] = lp
		if err := k.Schedule(lp, 0.001*float64(lp+1), 6); err != nil {
			t.Fatal(err)
		}
	}
	st, err := k.Stepper(all)
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{Lookahead: L}
	injected := 0
	for {
		T, end, _, ok := grid.Next(st.NextEventTime())
		if !ok {
			break
		}
		res, err := st.Step(T, end)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]Sent[any](nil), res.Outbox...)
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.Time != b.Time {
				return a.Time < b.Time
			}
			if a.Src != b.Src {
				return a.Src < b.Src
			}
			return a.SrcIdx < b.SrcIdx
		})
		if err := st.Inject(out); err != nil {
			t.Fatal(err)
		}
		injected += len(out)
	}
	st.Close()
	if injected == 0 {
		t.Fatal("the scenario sent nothing across LPs")
	}
	direct, directStats := runCrossTraffic(t, numLPs, false)
	ref, _ := runCrossTraffic(t, numLPs, true)
	if !reflect.DeepEqual(logs, direct) || !reflect.DeepEqual(logs, ref) {
		t.Error("the stepped and injected execution diverged from Run and from the oracle")
	}
	if !reflect.DeepEqual(k.Stats().Events, directStats.Events) || k.Stats().Windows != directStats.Windows {
		t.Error("stepped statistics diverged from Run's")
	}
}

// startKeysAt is the key-space test seam: it moves the kernel's window count
// to windows and starts every LP's ranks in the epoch a push now takes — the
// next window's for a push from a handler, this one's otherwise — at rank.
func (k *Kernel[P]) startKeysAt(windows, rank int64, inWindow bool) {
	k.stats.Windows, k.epoch = windows, windows
	epoch := windows
	if inWindow {
		epoch++
	}
	for lp := range k.keys {
		k.keys[lp] = keyClock{epoch: epoch, next: [2]int64{rank, rank}}
	}
}

// TestKeySpaceOverflowIsTyped: a push past the key's 31-bit epoch or rank
// returns ErrKeySpace — from Kernel.Schedule, through a handler (Run), and
// from Inject, which then enqueues nothing — instead of wrapping.
func TestKeySpaceOverflowIsTyped(t *testing.T) {
	// Event 0 pushes twice onto its own LP and sends twice to the other.
	twice := func(lp int, tm float64, data any, s *Scheduler[any]) {
		if data.(int) == 0 {
			for range 2 {
				s.Schedule(lp, tm, 1)
				s.Schedule((lp+1)%2, s.windowEnd, 1)
			}
		}
	}
	newKernel := func() *Kernel[any] {
		k, err := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: twice})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	k := newKernel()
	k.startKeysAt(0, maxKeyField, false)
	if err := k.Schedule(0, 0.5, 0); err != nil {
		t.Fatalf("the last rank of the epoch: %v", err)
	}
	if err := k.Schedule(0, 0.5, 0); !errors.Is(err, ErrKeySpace) {
		t.Fatalf("a rank past 31 bits: err = %v, want ErrKeySpace", err)
	}

	for name, seam := range map[string]func(k *Kernel[any]){
		"rank":  func(k *Kernel[any]) { k.startKeysAt(0, maxKeyField, true) },
		"epoch": func(k *Kernel[any]) { k.startKeysAt(maxKeyField, 0, false) },
	} {
		k := newKernel()
		if err := k.Schedule(0, 0.5, 0); err != nil {
			t.Fatal(err)
		}
		seam(k)
		if _, err := k.Run(); !errors.Is(err, ErrKeySpace) {
			t.Errorf("%s past 31 bits in a handler: Run err = %v, want ErrKeySpace", name, err)
		}
	}

	k = newKernel()
	if err := k.Schedule(0, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	st, err := k.Stepper([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := st.Step(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]Sent[any](nil), res.Outbox...)
	if len(out) != 2 {
		t.Fatalf("outbox holds %d events, want the 2 sends", len(out))
	}
	k.startKeysAt(k.stats.Windows, maxKeyField, false)
	before := k.queues[1].Len()
	if err := st.Inject(out); !errors.Is(err, ErrKeySpace) {
		t.Fatalf("Inject past the rank limit: err = %v, want ErrKeySpace", err)
	}
	if k.queues[1].Len() != before {
		t.Error("a refused Inject enqueued events")
	}
	if err := st.Inject(out[:1]); err != nil {
		t.Errorf("Inject of the last rank: %v", err)
	}
}
