package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/mapping"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// syntheticScenario builds a Campus scenario running an explicit flow list —
// the controllable workload the interval-loop regressions need.
func syntheticScenario(t *testing.T, flows []traffic.Flow, duration float64) *Scenario {
	t.Helper()
	sc := &Scenario{
		Name:     "synthetic",
		Network:  topogen.Campus(),
		Engines:  3,
		PartSeed: 5,
	}
	hosts := sc.Network.Hosts()
	if len(hosts) < 4 {
		t.Fatal("campus too small")
	}
	for i := range flows {
		flows[i].ID = i
		flows[i].Src = hosts[(2*i)%len(hosts)]
		flows[i].Dst = hosts[(2*i+1)%len(hosts)]
		if flows[i].Bytes == 0 {
			flows[i].Bytes = 100e3
		}
	}
	sc.SetWorkload(traffic.Workload{Flows: flows, Duration: duration})
	return sc
}

// Regression for the float-drift hazard: accumulating start += interval
// drifts, so with duration 1.0 / interval 0.1 the old loop left
// start = 0.9999999999999999 < 1.0 after ten segments and ran a spurious
// eleventh segment re-emulating the tail's flows.
func TestRunDynamicNonDivisibleIntervalNoDrift(t *testing.T) {
	var flows []traffic.Flow
	for i := 0; i < 20; i++ {
		flows = append(flows, traffic.Flow{Start: 0.025 + 0.05*float64(i)})
	}
	sc := syntheticScenario(t, flows, 1.0)
	res, err := sc.RunDynamic(context.Background(), 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 10 {
		t.Fatalf("segments = %d, want 10 (duration 1.0 / interval 0.1)", len(res.Segments))
	}
	total := 0
	for _, s := range res.Segments {
		total += s.Flows
		if s.Start >= 1.0 {
			t.Fatalf("segment starts at %v, past the duration", s.Start)
		}
	}
	if total != len(flows) {
		t.Fatalf("segments carry %d flows, workload has %d — trailing flows double-counted or lost",
			total, len(flows))
	}
}

func TestSliceWorkloadBoundaries(t *testing.T) {
	w := traffic.Workload{
		Duration: 2,
		AppHosts: []int{7},
		Flows: []traffic.Flow{
			{ID: 0, Src: 1, Dst: 2, Start: 0, Bytes: 10},    // exactly at slice start
			{ID: 1, Src: 3, Dst: 4, Start: 0.5, Bytes: 20},  // interior
			{ID: 2, Src: 5, Dst: 6, Start: 1.0, Bytes: 30},  // exactly at slice end → next slice
			{ID: 3, Src: 7, Dst: 8, Start: 1.5, Bytes: 40},  // interior of next slice
			{ID: 4, Src: 9, Dst: 10, Start: 2.5, Bytes: 50}, // past both
		},
	}
	first := sliceWorkload(w, 0, 1)
	second := sliceWorkload(w, 1, 2)

	if got := len(first.Flows); got != 2 {
		t.Fatalf("first slice has %d flows, want 2 (start boundary inclusive, end exclusive)", got)
	}
	if got := len(second.Flows); got != 2 {
		t.Fatalf("second slice has %d flows, want 2", got)
	}
	if second.Flows[0].Bytes != 30 {
		t.Fatal("flow starting exactly at the boundary must open the next slice")
	}
	// Rebasing: starts relative to the slice, IDs dense from zero in each
	// slice — the uniqueness NetFlow/telemetry attribution relies on within
	// one segment run.
	for _, sl := range []traffic.Workload{first, second} {
		seen := map[int]bool{}
		for i, f := range sl.Flows {
			if f.ID != i {
				t.Fatalf("slice IDs not dense: flow %d has ID %d", i, f.ID)
			}
			if seen[f.ID] {
				t.Fatalf("duplicate flow ID %d within a slice", f.ID)
			}
			seen[f.ID] = true
			if f.Start < 0 || f.Start >= 1 {
				t.Fatalf("rebased start %v outside [0,1)", f.Start)
			}
		}
		if !reflect.DeepEqual(sl.AppHosts, w.AppHosts) {
			t.Fatal("slice lost AppHosts")
		}
	}
	if second.Flows[0].Start != 0 {
		t.Fatalf("boundary flow rebased to %v, want 0", second.Flows[0].Start)
	}
	// The tail form absorbs everything else.
	tail := sliceWorkload(w, 2, math.Inf(1))
	if len(tail.Flows) != 1 || tail.Flows[0].Bytes != 50 {
		t.Fatalf("tail slice = %+v, want the one trailing flow", tail.Flows)
	}
}

// Regression for collector state leaking across segments: the remap entering
// interval i+1 must be computed from interval i's traffic alone, exactly as
// a fresh collector observing only that interval would produce.
func TestRunDynamicSecondIntervalProfileFresh(t *testing.T) {
	sc := dynamicScenario()
	const interval = 10.0
	res, err := sc.RunDynamic(context.Background(), interval, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(res.Segments))
	}

	// Replay segment 1 (the second interval, whose flow set is disjoint from
	// the first's) on a fresh collector under the same assignment, and remap
	// the way RunDynamic does.
	sc2 := dynamicScenario()
	w, err := sc2.Workload()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := sc2.Routes()
	if err != nil {
		t.Fatal(err)
	}
	seg := sliceWorkload(w, interval, 2*interval)
	prof, err := emu.Run(emu.Config{
		Network:    sc2.Network,
		Routes:     routes,
		Assignment: res.Segments[1].Assignment,
		NumEngines: sc2.Engines,
		Workload:   seg,
		Profile:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := sc2.mappingInput()
	if err != nil {
		t.Fatal(err)
	}
	in.Summary = prof.NetFlow.Summarize()
	want, err := mapping.ProfileMap(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res.Segments[2].Assignment) {
		t.Fatal("second-interval remap differs from a fresh collector's — cumulative accounting leaked across segments")
	}
}

// Mid-run traffic gap: the empty interval skips its remap and carries the
// assignment, migrations are charged exactly once against the segment they
// enter, and the stall charge scales with the migration cost.
func TestRunDynamicZeroFlowGapAccounting(t *testing.T) {
	var flows []traffic.Flow
	for i := 0; i < 30; i++ {
		start := 0.2 * float64(i%25)
		if i >= 25 {
			start = 20.5 + 0.2*float64(i-25) // resumes after the [5,20) gap
		}
		flows = append(flows, traffic.Flow{Start: start, Bytes: 400e3})
	}
	run := func(cost float64) *DynamicResult {
		sc := syntheticScenario(t, append([]traffic.Flow(nil), flows...), 25)
		res, err := sc.RunDynamic(context.Background(), 5, cost)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(1e-9)
	if len(res.Segments) != 5 {
		t.Fatalf("segments = %d, want 5", len(res.Segments))
	}
	for i := 1; i <= 3; i++ {
		if res.Segments[i].Flows != 0 {
			t.Fatalf("segment %d should be inside the traffic gap, has %d flows", i, res.Segments[i].Flows)
		}
	}

	// The only remap runs after segment 0; its migrations are charged to
	// segment 1 and to nothing else. The gap segments carry the assignment
	// unchanged into the resumed traffic.
	if res.Segments[1].Remap == nil {
		t.Fatal("segment 1 should record the remap that produced it")
	}
	m := res.Segments[1].Migrations
	if m == 0 {
		t.Fatal("expected the post-burst remap to migrate nodes")
	}
	for i := 2; i < 5; i++ {
		if res.Segments[i].Migrations != 0 {
			t.Fatalf("segment %d charges %d migrations — empty intervals must not remap", i, res.Segments[i].Migrations)
		}
		if res.Segments[i].Remap != nil {
			t.Fatalf("segment %d records a remap after an empty interval", i)
		}
		if !reflect.DeepEqual(res.Segments[i].Assignment, res.Segments[1].Assignment) {
			t.Fatalf("segment %d changed assignment without a remap", i)
		}
	}
	if res.Migrations != m {
		t.Fatalf("total migrations %d, want the single remap's %d", res.Migrations, m)
	}

	// Stall charge: AppTime grows by exactly migrations × Δcost.
	pricey := run(1.0)
	if pricey.Migrations != m {
		t.Fatalf("migration count changed with the cost: %d vs %d", pricey.Migrations, m)
	}
	wantDelta := float64(m) * (1.0 - 1e-9)
	gotDelta := pricey.AppTime - res.AppTime
	if math.Abs(gotDelta-wantDelta) > 1e-6*wantDelta+1e-9 {
		t.Fatalf("AppTime stall delta = %g, want %g (migrations charged once)", gotDelta, wantDelta)
	}
}
