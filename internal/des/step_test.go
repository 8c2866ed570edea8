package des

import (
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
)

// SortSent orders barrier events in the deterministic global merge order the
// in-process barrier uses: time, then sending LP, then send order — what a
// coordinator does to the Steppers' merged outboxes before injecting.
func SortSent[P any](evs []Sent[P]) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.SrcIdx < b.SrcIdx
	})
}

// pingPayload bounces between LPs 0 and 1 until time 5, charging one kernel
// event per hop — a minimal workload with real cross-LP traffic.
type pingPayload struct{ hops int }

func pingHandler(lp int, t float64, data any, s *Scheduler[any]) {
	s.Charge(1)
	p := data.(pingPayload)
	if t >= 5 {
		return
	}
	s.Schedule(1-lp, t+1, pingPayload{hops: p.hops + 1})
}

func newPingKernel(t *testing.T) *Kernel[any] {
	t.Helper()
	k, err := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: pingHandler})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Schedule(0, 0.5, pingPayload{}); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestStepperValidatesLocals(t *testing.T) {
	cases := []struct {
		name  string
		local []int
	}{
		{"empty", nil},
		{"out-of-range", []int{2}},
		{"negative", []int{-1}},
		{"duplicate", []int{0, 0}},
	}
	for _, tc := range cases {
		k := newPingKernel(t)
		if _, err := k.Stepper(tc.local); err == nil {
			t.Errorf("%s local set must be rejected", tc.name)
		}
	}
	// A kernel has one driver at a time: it cannot be stepped twice.
	k := newPingKernel(t)
	if _, err := k.Stepper([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Stepper([]int{0}); err == nil {
		t.Fatal("second Stepper on the same kernel must be rejected")
	}
}

// TestStepperMatchesRun drives the ping kernel with two steppers under a
// hand-rolled coordinator loop and compares every counter with Run.
func TestStepperMatchesRun(t *testing.T) {
	ref := newPingKernel(t)
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Two "workers": each holds its own kernel over the full LP space and
	// claims a disjoint local subset, seeding only events destined for its
	// own LPs — the distributed runtime's layout.
	const L = 1.0
	kA := newPingKernel(t) // seed lives on LP 0, local to worker A
	s0, err := kA.Stepper([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	kB, err := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: pingHandler})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := kB.Stepper([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	steppers := []*Stepper[any]{s0, s1}

	var totalEvents, totalCharges int64
	first := true
	var T float64
	for {
		minT, any := math.Inf(1), false
		for _, st := range steppers {
			if nt, ok := st.NextEventTime(); ok && nt < minT {
				minT, any = nt, true
			}
		}
		if !any {
			break
		}
		if first {
			T = windowFloor(minT, L)
			first = false
		} else if minT >= T+L {
			T = windowFloor(minT, L)
		}
		var outbox []Sent[interface{}]
		for _, st := range steppers {
			res, err := st.Step(T, T+L)
			if err != nil {
				t.Fatal(err)
			}
			for lp := range res.Events {
				totalEvents += res.Events[lp]
				totalCharges += res.Charges[lp]
			}
			outbox = append(outbox, res.Outbox...)
		}
		SortSent(outbox)
		for _, st := range steppers {
			var mine []Sent[interface{}]
			for _, sv := range outbox {
				if st.isLocal[sv.Dst] {
					mine = append(mine, sv)
				}
			}
			if err := st.Inject(mine); err != nil {
				t.Fatal(err)
			}
		}
		T += L
	}
	var wantEvents int64
	for _, e := range want.Events {
		wantEvents += e
	}
	if totalEvents != wantEvents || totalCharges != want.TotalCharges() {
		t.Fatalf("stepped execution diverges: events %d/%d charges %d/%d",
			totalEvents, wantEvents, totalCharges, want.TotalCharges())
	}
}

func TestStepperNextEventTime(t *testing.T) {
	k := newPingKernel(t)
	st, err := k.Stepper([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	nt, ok := st.NextEventTime()
	if !ok || nt != 0.5 {
		t.Fatalf("NextEventTime = %g,%v; want 0.5,true", nt, ok)
	}
	// Drain everything: the vote must turn empty.
	T := windowFloor(0.5, 1)
	for i := 0; i < 32; i++ {
		res, err := st.Step(T, T+1)
		if err != nil {
			t.Fatal(err)
		}
		SortSent(res.Outbox)
		if err := st.Inject(res.Outbox); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.NextEventTime(); !ok {
			return
		}
		T += 1
	}
	t.Fatal("ping workload never drained")
}

func TestStepperInjectRejectsNonLocal(t *testing.T) {
	k := newPingKernel(t)
	st, err := k.Stepper([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, dst := range []int{1, -1, 2} {
		err := st.Inject([]Sent[any]{{Time: 1, Dst: dst}})
		if err == nil {
			t.Errorf("inject for LP %d must be rejected (stepper owns only LP 0)", dst)
		}
	}
}

func TestStepperHandlerFailurePoisons(t *testing.T) {
	k, err := New(Config[any]{NumLPs: 1, Lookahead: 1,
		Handler: func(lp int, tt float64, data any, s *Scheduler[any]) {
			s.Fail(errors.New("deliberate"))
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Schedule(0, 0.5, nil); err != nil {
		t.Fatal(err)
	}
	st, err := k.Stepper([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Step(0, 1); err == nil || !strings.Contains(err.Error(), "deliberate") {
		t.Fatalf("handler failure must surface from Step, got %v", err)
	}
	// Poisoned: every later Step fails too.
	if _, err := st.Step(1, 2); err == nil {
		t.Fatal("poisoned stepper must keep failing")
	}
}

func TestSortSentGlobalMergeOrder(t *testing.T) {
	evs := []Sent[any]{
		{Time: 2, Src: 0, SrcIdx: 0},
		{Time: 1, Src: 1, SrcIdx: 1},
		{Time: 1, Src: 1, SrcIdx: 0},
		{Time: 1, Src: 0, SrcIdx: 0},
	}
	SortSent(evs)
	if !sort.SliceIsSorted(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.SrcIdx < b.SrcIdx
	}) {
		t.Fatalf("not in merge order: %+v", evs)
	}
	if evs[0] != (Sent[any]{Time: 1, Src: 0, SrcIdx: 0}) || evs[3].Time != 2 {
		t.Fatalf("unexpected order: %+v", evs)
	}
}

func TestWindowFloorGrid(t *testing.T) {
	cases := []struct{ t, L, want float64 }{
		{0, 1, 0},
		{0.5, 1, 0},
		{1, 1, 1},
		{2.75, 0.5, 2.5},
		{1e9 + 0.3, 1, 1e9},
	}
	for _, tc := range cases {
		if got := windowFloor(tc.t, tc.L); got != tc.want {
			t.Errorf("windowFloor(%g, %g) = %g, want %g", tc.t, tc.L, got, tc.want)
		}
	}
}
