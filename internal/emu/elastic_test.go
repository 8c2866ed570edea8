package emu

import (
	"reflect"
	"testing"
)

// TestElasticResizeMatchesStatic checks the base property of the elastic
// path: a resize whose assignment equals the current one (zero migrations)
// changes nothing about the simulation output, and a real grow resize keeps
// the run deterministic and reports its membership log.
func TestElasticResizeMatchesStatic(t *testing.T) {
	nw := lineNet()
	w := spreadFlows(6, 10)

	base := Config{Network: nw, Assignment: []int{0, 0, 1, 1}, NumEngines: 3, Workload: w}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	noop := base
	noop.Elastic = []Resize{{At: 4, Engines: []int{0, 1, 2}, Assignment: []int{0, 0, 1, 1}}}
	noop.CheckpointEvery = 3
	got, err := Run(noop)
	if err != nil {
		t.Fatal(err)
	}
	if got.Membership == nil || len(got.Membership.Resizes) != 1 {
		t.Fatalf("Membership = %+v, want one applied resize", got.Membership)
	}
	if got.Membership.Resizes[0].Migrations != 0 || got.Membership.Stall != 0 {
		t.Fatalf("no-op resize migrated: %+v", got.Membership.Resizes[0])
	}
	if !reflect.DeepEqual(got.Kernel.Events, ref.Kernel.Events) ||
		!reflect.DeepEqual(got.FlowFCTs, ref.FlowFCTs) ||
		!reflect.DeepEqual(got.LinkBytes, ref.LinkBytes) {
		t.Fatalf("no-op resize changed outputs: events %v vs %v, fcts %v vs %v",
			got.Kernel.Events, ref.Kernel.Events, got.FlowFCTs, ref.FlowFCTs)
	}
	if got.Recovery != nil {
		t.Fatalf("elastic-only run reported Recovery %+v", got.Recovery)
	}

	grow := base
	grow.Elastic = []Resize{{At: 4, Engines: []int{0, 1, 2}, Assignment: []int{0, 1, 2, 2}}}
	grow.CheckpointEvery = 3
	a, err := Run(grow)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(grow)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Kernel.Events, b.Kernel.Events) || !reflect.DeepEqual(a.FlowFCTs, b.FlowFCTs) {
		t.Fatalf("grow resize is nondeterministic: %v vs %v", a.Kernel.Events, b.Kernel.Events)
	}
	if a.Membership.Resizes[0].Migrations == 0 {
		t.Fatal("grow resize reported zero migrations")
	}
	if a.Membership.Stall <= 0 {
		t.Fatal("grow resize reported zero stall")
	}
	if a.AppTime <= ref.AppTime {
		t.Fatalf("migration stall did not dilate AppTime: %v vs %v", a.AppTime, ref.AppTime)
	}
	if !reflect.DeepEqual(a.FinalAssignment, grow.Elastic[0].Assignment) {
		t.Fatalf("FinalAssignment = %v, want %v", a.FinalAssignment, grow.Elastic[0].Assignment)
	}
	// Flow outcomes are physical properties of the virtual network — they
	// must not depend on which engine hosts which node.
	if !reflect.DeepEqual(a.FlowFCTs, ref.FlowFCTs) || !reflect.DeepEqual(a.LinkBytes, ref.LinkBytes) {
		t.Fatalf("grow resize changed flow outcomes: %v vs %v", a.FlowFCTs, ref.FlowFCTs)
	}
}

// TestElasticShrinkDrain checks the drain direction: the active set shrinks
// and every node leaves the drained engine.
func TestElasticShrinkDrain(t *testing.T) {
	nw := lineNet()
	w := spreadFlows(6, 10)
	cfg := Config{Network: nw, Assignment: []int{0, 0, 1, 1}, NumEngines: 2, Workload: w,
		Elastic:         []Resize{{At: 5, Engines: []int{0}, Assignment: []int{0, 0, 0, 0}}},
		CheckpointEvery: 4,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, eng := range res.FinalAssignment {
		if eng != 0 {
			t.Fatalf("node %d still on drained engine %d", v, eng)
		}
	}
	ref, err := Run(Config{Network: nw, Assignment: []int{0, 0, 1, 1}, NumEngines: 2, Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.FlowFCTs, ref.FlowFCTs) {
		t.Fatalf("drain changed flow outcomes: %v vs %v", res.FlowFCTs, ref.FlowFCTs)
	}
}

// TestElasticValidation exercises the config checks.
func TestElasticValidation(t *testing.T) {
	nw := lineNet()
	w := spreadFlows(2, 10)
	base := Config{Network: nw, Assignment: []int{0, 0, 1, 1}, NumEngines: 2, Workload: w}

	bad := base
	bad.Elastic = []Resize{{At: 5, Engines: nil}}
	if _, err := Run(bad); err == nil {
		t.Fatal("empty engine set accepted")
	}
	bad = base
	bad.Elastic = []Resize{{At: 5, Engines: []int{0, 2}}}
	bad.OnMembership = func(MembershipChange) ([]int, error) { return nil, nil }
	if _, err := Run(bad); err == nil {
		t.Fatal("out-of-range engine accepted")
	}
	bad = base
	bad.Elastic = []Resize{{At: 5, Engines: []int{0, 1}}}
	if _, err := Run(bad); err == nil {
		t.Fatal("missing OnResize accepted")
	}
	bad = base
	bad.Elastic = []Resize{
		{At: 5, Engines: []int{0}, Assignment: []int{0, 0, 0, 0}},
		{At: 5, Engines: []int{0, 1}, Assignment: []int{0, 0, 1, 1}},
	}
	if _, err := Run(bad); err == nil {
		t.Fatal("non-increasing resize times accepted")
	}
	bad = base
	bad.Elastic = []Resize{{At: 5, Engines: []int{0}, Assignment: []int{0, 0, 1, 1}}}
	if _, err := Run(bad); err == nil {
		t.Fatal("assignment outside the new engine set accepted")
	}
}
