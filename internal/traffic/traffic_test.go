package traffic

import (
	"math"
	"slices"
	"testing"

	"repro/internal/topogen"
)

// TestCollect: Collect sorts a generator's flows by start in place (ties in
// emission order), appends the flows of the after workloads as they are, and
// numbers every flow by its position, in one exactly sized slice.
func TestCollect(t *testing.T) {
	gen := func(starts ...float64) func(func(Flow)) {
		return func(emit func(Flow)) {
			for i, st := range starts {
				emit(Flow{ID: 7, Start: st, Bytes: int64(i), Tag: "gen"})
			}
		}
	}
	after := Workload{Flows: []Flow{{ID: 0, Start: 2, Tag: "app"}, {ID: 1, Start: 0, Tag: "app"}}}
	flows := Collect(gen(5, 1, 3, 1), Workload{}, after)
	want := []Flow{
		{ID: 0, Start: 1, Bytes: 1, Tag: "gen"},
		{ID: 1, Start: 1, Bytes: 3, Tag: "gen"},
		{ID: 2, Start: 3, Bytes: 2, Tag: "gen"},
		{ID: 3, Start: 5, Bytes: 0, Tag: "gen"},
		{ID: 4, Start: 2, Tag: "app"},
		{ID: 5, Start: 0, Tag: "app"},
	}
	if !slices.Equal(flows, want) || cap(flows) != len(flows) {
		t.Errorf("Collect = %+v (cap %d), want %+v", flows, cap(flows), want)
	}
	if after.Flows[0].ID != 0 || after.Flows[1].ID != 1 {
		t.Errorf("Collect renumbered the after workload's own flows: %+v", after.Flows)
	}
	if got := Collect(gen(), Workload{}); got != nil {
		t.Errorf("Collect of no flows = %+v, want nil", got)
	}
}

func TestSortByStart(t *testing.T) {
	w := Workload{Flows: []Flow{
		{ID: 0, Start: 5},
		{ID: 1, Start: 1},
		{ID: 2, Start: 3},
	}}
	w.SortByStart()
	if w.Flows[0].Start != 1 || w.Flows[1].Start != 3 || w.Flows[2].Start != 5 {
		t.Errorf("not sorted: %+v", w.Flows)
	}
}

func TestTotalBytes(t *testing.T) {
	w := Workload{Flows: []Flow{{Bytes: 10}, {Bytes: 32}}}
	if w.TotalBytes() != 42 {
		t.Errorf("TotalBytes = %d, want 42", w.TotalBytes())
	}
}

func TestValidate(t *testing.T) {
	nw := topogen.Campus()
	hosts := nw.Hosts()
	good := Workload{Flows: []Flow{{ID: 0, Src: hosts[0], Dst: hosts[1], Bytes: 100, Start: 0}}}
	if err := good.Validate(nw); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
	cases := []Flow{
		{Src: -1, Dst: hosts[0], Bytes: 1},                  // out of range
		{Src: 0, Dst: hosts[0], Bytes: 1},                   // node 0 is a router
		{Src: hosts[0], Dst: hosts[0], Bytes: 1},            // same endpoints
		{Src: hosts[0], Dst: hosts[1], Bytes: 0},            // empty flow
		{Src: hosts[0], Dst: hosts[1], Bytes: 1, Start: -1}, // negative time
		// A NaN start passed (NaN < 0 is false) and failed later in the kernel;
		// a +Inf one never started.
		{Src: hosts[0], Dst: hosts[1], Bytes: 1, Start: math.NaN()},
		{Src: hosts[0], Dst: hosts[1], Bytes: 1, Start: math.Inf(1)},
	}
	for i, f := range cases {
		w := Workload{Flows: []Flow{f}}
		if err := w.Validate(nw); err == nil {
			t.Errorf("case %d accepted: %+v", i, f)
		}
	}
}

func TestHTTPGenerateDeterministic(t *testing.T) {
	nw := topogen.Campus()
	spec := DefaultHTTP(30, 42)
	a := spec.Generate(nw)
	b := spec.Generate(nw)
	if len(a.Flows) != len(b.Flows) {
		t.Fatalf("same seed, different flow counts: %d vs %d", len(a.Flows), len(b.Flows))
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("same seed, different flow %d", i)
		}
	}
	spec2 := spec
	spec2.Seed = 43
	c := spec2.Generate(nw)
	if len(a.Flows) == len(c.Flows) {
		same := true
		for i := range a.Flows {
			if a.Flows[i] != c.Flows[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical workloads")
		}
	}
}

func TestHTTPGenerateShape(t *testing.T) {
	nw := topogen.Campus()
	spec := DefaultHTTP(60, 7)
	w := spec.Generate(nw)
	if err := w.Validate(nw); err != nil {
		t.Fatal(err)
	}
	if len(w.Flows) == 0 {
		t.Fatal("no background flows generated")
	}
	for _, f := range w.Flows {
		if f.Bytes != spec.RequestBytes {
			t.Fatalf("flow size %d, want %d", f.Bytes, spec.RequestBytes)
		}
		if f.Start < 0 || f.Start >= spec.Duration {
			t.Fatalf("flow start %v outside [0,%v)", f.Start, spec.Duration)
		}
		if f.Tag != "http" {
			t.Fatalf("tag = %q", f.Tag)
		}
	}
	// Flow arrival rate should be near pairs/thinkTime. Campus has 40
	// hosts -> 20 servers x 10 clients = 200 pairs; rate 200/12 ≈ 16.7/s.
	rate := float64(len(w.Flows)) / spec.Duration
	if rate < 8 || rate > 34 {
		t.Errorf("flow rate = %.1f/s, want ~16.7/s", rate)
	}
	// Sorted by start.
	for i := 1; i < len(w.Flows); i++ {
		if w.Flows[i].Start < w.Flows[i-1].Start {
			t.Fatal("flows not sorted by start")
		}
	}
}

func TestHTTPPredictMatchesGeneratedVolume(t *testing.T) {
	// The prediction is the generator's own average-rate model: total
	// predicted volume must be within ~25% of actually generated volume for
	// a long enough run.
	nw := topogen.TeraGrid()
	spec := DefaultHTTP(120, 3)
	w := spec.Generate(nw)
	pred := spec.Predict(nw)
	var predBytes float64
	for _, p := range pred {
		predBytes += p.BytesPerSecond * spec.Duration
	}
	gen := float64(w.TotalBytes())
	if math.Abs(predBytes-gen) > 0.30*gen {
		t.Errorf("predicted %.3g bytes vs generated %.3g (> 30%% off)", predBytes, gen)
	}
}

func TestHTTPPredictEndpointsAreGenerated(t *testing.T) {
	// Every generated flow's endpoint pair must appear in the prediction.
	nw := topogen.Campus()
	spec := DefaultHTTP(20, 5)
	pred := spec.Predict(nw)
	pairs := make(map[[2]int]bool)
	for _, p := range pred {
		pairs[[2]int{p.Src, p.Dst}] = true
	}
	for _, f := range spec.Generate(nw).Flows {
		if !pairs[[2]int{f.Src, f.Dst}] {
			t.Fatalf("generated flow %d->%d not predicted", f.Src, f.Dst)
		}
	}
}

func TestHTTPServerCapSmallNetwork(t *testing.T) {
	// Campus has 40 hosts; 107 requested servers must cap at 20.
	nw := topogen.Campus()
	spec := DefaultHTTP(10, 1)
	pred := spec.Predict(nw)
	servers := make(map[int]bool)
	for _, p := range pred {
		servers[p.Src] = true
	}
	if len(servers) > 20 {
		t.Errorf("%d servers on a 40-host network, want <= 20", len(servers))
	}
}

func TestHTTPClientDiffersFromServer(t *testing.T) {
	nw := topogen.Campus()
	spec := DefaultHTTP(10, 9)
	for _, p := range spec.Predict(nw) {
		if p.Src == p.Dst {
			t.Fatal("client == server in prediction")
		}
	}
	for _, f := range spec.Generate(nw).Flows {
		if f.Src == f.Dst {
			t.Fatal("client == server in generated flow")
		}
	}
}
