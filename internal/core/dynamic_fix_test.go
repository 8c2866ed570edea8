package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/mapping"
	"repro/internal/netflow"
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
// drifts, so with duration 1.0 / interval 0.1 a loop of additions left
// start = 0.9999999999999999 < 1.0 after ten intervals and cut a spurious
// eleventh. A flow starting exactly on a boundary opens the interval there,
// and the last interval takes the flows past the duration.
func TestRunDynamicNonDivisibleIntervalNoDrift(t *testing.T) {
	var flows []traffic.Flow
	for i := 0; i < 20; i++ {
		flows = append(flows, traffic.Flow{Start: 0.025 + 0.05*float64(i)})
	}
	third := 3.0 // a variable, so the boundary is rounded as RunDynamic rounds it
	flows = append(flows, traffic.Flow{Start: third * 0.1}, traffic.Flow{Start: 1.2})
	sc := syntheticScenario(t, flows, 1.0)
	res, err := sc.RunDynamic(context.Background(), 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 10 {
		t.Fatalf("segments = %d, want 10 (duration 1.0 / interval 0.1)", len(res.Segments))
	}
	for i, s := range res.Segments {
		want := 2
		if i == 3 || i == 9 {
			want = 3
		}
		if s.Flows != want {
			t.Errorf("segment %d at %v has %d flows, want %d", i, s.Start, s.Flows, want)
		}
		if s.Start >= 1.0 {
			t.Fatalf("segment starts at %v, past the duration", s.Start)
		}
	}
}

// intervalProfile must be exactly what a fresh collector that saw only the
// traffic between two summaries would summarize.
func TestIntervalProfileMatchesFreshCollector(t *testing.T) {
	// Flow 0 runs 0 -> 1 -> 2 over links 0 and 1, flow 1 runs 2 -> 1 back
	// over link 1. Hop h of a flow is node path[h], entered over slot
	// slots[h] (2·link+dir, the sending end's direction).
	type route struct{ path, slots []int }
	routes := []route{{[]int{0, 1, 2}, []int{-1, 0, 2}}, {[]int{2, 1}, []int{-1, 3}}}
	fresh := func() *netflow.Collector { return netflow.NewCollector(3, 2, 10, 2) }
	type group struct {
		flow, hop int
		packets   int64
		t         float64
	}
	observe := func(c *netflow.Collector, gs []group) {
		for _, g := range gs {
			r := routes[g.flow]
			c.Observe(r.path[g.hop], r.slots[g.hop], g.packets, g.t)
		}
	}
	// Flow 0's last hop takes a group before and one after, flow 1's first
	// hop the other way round, and link 0 carries nothing after.
	before := []group{{0, 0, 1, 0.5}, {0, 1, 1, 0.6}, {0, 2, 1, 0.7}, {0, 0, 3, 1}, {0, 1, 3, 1.1}, {1, 0, 3, 3}}
	after := []group{{0, 2, 3, 5}, {1, 1, 3, 7}, {1, 0, 1, 9}}

	whole := fresh()
	observe(whole, before)
	seen := intervalProfile(whole.Summarize(), nil)
	observe(whole, after)
	only := fresh()
	observe(only, after)
	if got, want := intervalProfile(whole.Summarize(), seen), only.Summarize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("interval profile %+v\nfresh collector %+v", got, want)
	}
	if got, want := intervalProfile(only.Summarize(), nil), only.Summarize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("profile since nothing %+v, want the summary %+v", got, want)
	}
}

// Regression for collector state leaking across intervals: the remap entering
// interval i+1 must be computed from interval i's traffic alone — the
// difference of the run's cumulative NetFlow at the two barriers — not from
// everything profiled since the run began.
func TestRunDynamicSecondIntervalProfileFresh(t *testing.T) {
	sc := dynamicScenario()
	const interval = 10.0
	res, err := sc.RunDynamic(context.Background(), interval, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) < 3 || res.Segments[2].Remap == nil {
		t.Fatalf("need a remap entering the third of %d segments", len(res.Segments))
	}

	// Replay the run with the assignments it chose, keeping the cumulative
	// profile at each barrier, and remap the second interval the way
	// RunDynamic does.
	sc2 := dynamicScenario()
	cfg, err := sc2.emuConfig(res.Segments[0].Assignment)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profile = true
	for _, s := range res.Segments[1:] {
		cfg.Elastic = append(cfg.Elastic, emu.Resize{At: s.Start, Engines: []int{0, 1, 2}})
	}
	var cumulative []*netflow.Summary
	cfg.OnMembership = func(c emu.MembershipChange) ([]int, error) {
		cumulative = append(cumulative, intervalProfile(c.NetFlow.Summarize(), nil))
		return res.Segments[len(cumulative)].Assignment, nil
	}
	if _, err := emu.Run(cfg); err != nil {
		t.Fatal(err)
	}
	in, err := sc2.mappingInput()
	if err != nil {
		t.Fatal(err)
	}
	in.Summary = intervalProfile(cumulative[1], cumulative[0])
	want, err := mapping.ProfileMap(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res.Segments[2].Assignment) {
		t.Fatal("second-interval remap differs from one over the interval's own traffic — cumulative accounting leaked across intervals")
	}
	in.Summary = cumulative[1]
	if leaked, err := mapping.ProfileMap(in); err == nil && reflect.DeepEqual(leaked, want) {
		t.Fatal("the cumulative profile maps like the interval's: the test cannot tell them apart")
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

// intervalDigest hashes a summary: its per-link and per-node packet totals and
// its load series. Floats print with %v, so equal digests mean bit-equal
// values.
func intervalDigest(s *netflow.Summary) string {
	links := make([]int, 0, len(s.LinkPackets))
	for l := range s.LinkPackets {
		links = append(links, l)
	}
	sort.Ints(links)
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes %v\nlinks", s.NodePackets)
	for _, l := range links {
		fmt.Fprintf(&sb, " %d:%d", l, s.LinkPackets[l])
	}
	fmt.Fprintf(&sb, "\nseries %v %v\n", s.NodeSeries.BucketWidth, s.NodeSeries.Loads)
	h := sha256.Sum256([]byte(sb.String()))
	return fmt.Sprintf("%d links %x", len(links), h[:8])
}

// TestRunDynamicIntervalProfilesPinned pins the profile each remap of a
// RunDynamic run reads: Campus in 7 s intervals, so every barrier lands
// mid-bucket and splits a bucket's load between two intervals. The run is
// replayed with the assignments it chose, taking intervalProfile at each
// barrier the way RunDynamic does, and each profile must be the one the run's
// remap was computed from (it maps to the next segment's assignment). The
// digests were recorded at 87dbae0.
func TestRunDynamicIntervalProfilesPinned(t *testing.T) {
	const interval = 7.0
	res, err := dynamicScenario().RunDynamic(context.Background(), interval, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := dynamicScenario()
	cfg, err := sc.emuConfig(res.Segments[0].Assignment)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profile = true
	for _, s := range res.Segments[1:] {
		cfg.Elastic = append(cfg.Elastic, emu.Resize{At: s.Start, Engines: []int{0, 1, 2}})
	}
	var profiles []*netflow.Summary
	var seen *netflow.Summary
	cfg.OnMembership = func(c emu.MembershipChange) ([]int, error) {
		now := c.NetFlow.Summarize()
		profiles = append(profiles, intervalProfile(now, seen))
		seen = intervalProfile(now, nil)
		return res.Segments[len(profiles)].Assignment, nil
	}
	if _, err := emu.Run(cfg); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"56 links e8afaf6d1dec213c", "56 links 57451886f6ca921b", "54 links 1e3f285812c1b0ee",
		"56 links 03076d036e170865", "56 links d2db1e6c98dacfbb",
	}
	if len(profiles) != len(want) {
		t.Fatalf("%d interval profiles, want %d", len(profiles), len(want))
	}
	in, err := sc.mappingInput()
	if err != nil {
		t.Fatal(err)
	}
	remaps := 0
	for i, p := range profiles {
		if got := intervalDigest(p); got != want[i] {
			t.Errorf("interval %d: profile digest %s, want %s", i, got, want[i])
		}
		if res.Segments[i+1].Remap == nil {
			continue
		}
		in.Summary = p
		next, _, err := remapStep(RemapProfile, in, res.Segments[i].Assignment, DefaultMigrationCost/interval)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(next, res.Segments[i+1].Assignment) {
			t.Errorf("interval %d: the replayed profile maps elsewhere than the run's remap did", i)
		}
		remaps++
	}
	if remaps == 0 {
		t.Fatal("no interval remapped: nothing ties the profiles to the run")
	}
}
