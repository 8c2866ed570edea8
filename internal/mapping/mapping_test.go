package mapping

import (
	"slices"
	"testing"

	"repro/internal/emu"
	"repro/internal/netflow"
	"repro/internal/netgraph"
	"repro/internal/partition"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

func TestMapDispatch(t *testing.T) {
	nw := topogen.Campus()
	in := Input{Network: nw, K: 3}
	for _, a := range Approaches() {
		if a == Profile {
			continue // needs a summary, covered below
		}
		part, err := Map(a, in)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if err := validPartition(nw.NumNodes(), part, 3); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
	if _, err := Map("BOGUS", in); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := TopMap(Input{K: 3}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := TopMap(Input{Network: topogen.Campus(), K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ProfileMap(Input{Network: topogen.Campus(), K: 3}); err == nil {
		t.Error("PROFILE without summary accepted")
	}
}

func TestTopMapDeterministic(t *testing.T) {
	nw := topogen.TeraGrid()
	in := Input{Network: nw, K: 5, PartOpts: partition.Options{Seed: 3}}
	a, err := TopMap(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TopMap(in)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("TOP not deterministic")
		}
	}
}

func TestTopMapKeepsLANsTogether(t *testing.T) {
	// TOP maximizes cut latency: the TeraGrid backbone (3-10 ms) should be
	// cut rather than intra-site LAN links (0.1-0.5 ms). Count cut links by
	// class.
	nw := topogen.TeraGrid()
	part, err := TopMap(Input{Network: nw, K: 5, PartOpts: partition.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var lanCut, wanCut, lanTotal, wanTotal int
	for _, l := range nw.Links {
		wan := l.Latency >= 3e-3
		cut := part[l.A] != part[l.B]
		if wan {
			wanTotal++
			if cut {
				wanCut++
			}
		} else {
			lanTotal++
			if cut {
				lanCut++
			}
		}
	}
	lanFrac := float64(lanCut) / float64(lanTotal)
	if lanFrac > 0.25 {
		t.Errorf("TOP cut %.0f%% of LAN links (%d/%d); should prefer cutting WAN links",
			lanFrac*100, lanCut, lanTotal)
	}
}

func TestPlaceMapUsesBackgroundAndApp(t *testing.T) {
	nw := topogen.Campus()
	spec := traffic.DefaultHTTP(60, 2)
	hosts := nw.Hosts()[:10]
	part, err := PlaceMap(Input{
		Network:    nw,
		K:          3,
		PartOpts:   partition.Options{Seed: 2},
		Background: spec.Predict(nw),
		AppHosts:   hosts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := validPartition(nw.NumNodes(), part, 3); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceMapWorksWithoutTraffic(t *testing.T) {
	// Degenerate PLACE (no background, no app) must still partition.
	nw := topogen.Campus()
	part, err := PlaceMap(Input{Network: nw, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := validPartition(nw.NumNodes(), part, 3); err != nil {
		t.Fatal(err)
	}
}

func TestProfileMapFromRealProfile(t *testing.T) {
	nw := topogen.Campus()
	const k = 3
	top, err := TopMap(Input{Network: nw, K: k, PartOpts: partition.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	w := traffic.DefaultHTTP(30, 4).Generate(nw)
	prof, err := emu.Run(emu.Config{
		Network: nw, Assignment: top, NumEngines: k, Workload: w, Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := prof.NetFlow.Summarize()

	for _, cluster := range []bool{false, true} {
		part, err := ProfileMap(Input{
			Network:  nw,
			K:        k,
			PartOpts: partition.Options{Seed: 5},
			Summary:  sum,
			Cluster:  cluster,
		})
		if err != nil {
			t.Fatalf("cluster=%v: %v", cluster, err)
		}
		if err = validPartition(nw.NumNodes(), part, k); err != nil {
			t.Fatalf("cluster=%v: %v", cluster, err)
		}
		// Re-run with the PROFILE partition: imbalance should not be worse
		// than TOP's (the paper's central claim, here as a weak sanity
		// bound: allow small noise).
		res, err := emu.Run(emu.Config{
			Network: nw, Assignment: part, NumEngines: k, Workload: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Imbalance > prof.Imbalance*1.15 {
			t.Errorf("cluster=%v: PROFILE imbalance %.3f much worse than TOP %.3f",
				cluster, res.Imbalance, prof.Imbalance)
		}
	}
}

func TestProfileMapRejectsWrongSummarySize(t *testing.T) {
	nw := topogen.Campus()
	_, err := ProfileMap(Input{
		Network: nw, K: 3,
		Summary: &netflow.Summary{NodePackets: make([]int64, 3)}, // wrong size
	})
	if err == nil {
		t.Error("mismatched summary accepted")
	}
}

func TestPredictMemory(t *testing.T) {
	nw := topogen.Campus()
	part := make([]int, nw.NumNodes())
	for v := range part {
		part[v] = v % 2
	}
	mem := PredictMemory(nw, part, 2)
	var total int64
	for _, m := range mem {
		total += m
	}
	// 20 routers in one 20-router AS: 20*(10+400) = 8200; 40 hosts: 400.
	if total != 8600 {
		t.Errorf("total memory = %d, want 8600", total)
	}
}

func validPartition(n int, part []int, k int) error {
	g := partition.NewGraph(n, 1)
	return partition.Verify(g, part, k)
}

func TestAssessQuality(t *testing.T) {
	nw := topogen.Campus()
	part, err := TopMap(Input{Network: nw, K: 3, PartOpts: partition.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	packets := make([]int64, len(nw.Links))
	packets[0] = 100
	q := Assess(nw, part, 3, packets)
	total := 0
	for _, n := range q.NodesPerEngine {
		total += n
	}
	if total != nw.NumNodes() {
		t.Errorf("NodesPerEngine sums to %d, want %d", total, nw.NumNodes())
	}
	if q.Lookahead <= 0 {
		t.Error("no lookahead")
	}
	if q.CutLinks <= 0 {
		t.Error("no cut links on a 3-way split")
	}
	if l := nw.Links[0]; q.CutTraffic != map[bool]int64{true: 100}[part[l.A] != part[l.B]] {
		t.Errorf("cut traffic %d: link 0 carried 100 packets, cut: %v", q.CutTraffic, part[l.A] != part[l.B])
	}
	if q.String() == "" {
		t.Error("empty report")
	}
	g := partition.NewGraph(nw.NumNodes(), 1)
	if err := partition.Verify(g, part, 3); err != nil {
		t.Errorf("Verify rejected a valid mapping: %v", err)
	}
	if err := partition.Verify(g, part, 99); err == nil {
		t.Error("Verify accepted wrong k")
	}
}

// TestNilRoutesFallbackMemoized documents Input.Routes' contract: a nil
// Routes takes the network's shared oracle, so repeated standalone approach
// calls on the same network build it exactly once.
func TestNilRoutesFallbackMemoized(t *testing.T) {
	nw := topogen.Campus()
	if got := nw.RoutingBuilds(); got != 0 {
		t.Fatalf("fresh network reports %d routing builds", got)
	}
	if _, err := TopMap(Input{Network: nw, K: 3}); err != nil {
		t.Fatal(err)
	}
	if got := nw.RoutingBuilds(); got != 1 {
		t.Errorf("nil Routes did not trigger the rebuild: %d builds, want 1", got)
	}
	if _, err := PlaceMap(Input{Network: nw, K: 3}); err != nil {
		t.Fatal(err)
	}
	if got := nw.RoutingBuilds(); got != 1 {
		t.Errorf("second nil-Routes call rebuilt the oracle: %d builds, want 1 (shared)", got)
	}
	// An explicitly threaded Routing suppresses the fallback entirely.
	nw2 := topogen.Campus()
	rt, err := netgraph.NewLazyRouting(nw2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TopMap(Input{Network: nw2, Routes: rt, K: 3}); err != nil {
		t.Fatal(err)
	}
	if got := nw2.RoutingBuilds(); got != 0 {
		t.Errorf("explicit Routes still built the shared oracle: %d builds, want 0", got)
	}
}

// TestLatencyPriorityOne: p = 1 is pure latency — the traffic objective's
// coefficient is 0 — and used to be silently rewritten to the 6:4 default.
func TestLatencyPriorityOne(t *testing.T) {
	nw, err := topogen.ByName("Brite", 42)
	if err != nil {
		t.Fatal(err)
	}
	in := goldenInput(t, nw, 8, 42)
	sixFour, err := ProfileMap(in)
	if err != nil {
		t.Fatal(err)
	}
	in.LatencyPriority = 1
	got, err := ProfileMap(in)
	if err != nil {
		t.Fatal(err)
	}
	ref := in
	if err := ref.defaults(); err != nil {
		t.Fatal(err)
	}
	g, objs, err := profileGraph(&ref)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialReference(t, g, objs, []float64{1, 0}, ref.K, ref.PartOpts); !slices.Equal(got, want) {
		t.Error("PROFILE at p = 1 is not the partition whose traffic coefficient is 0")
	}
	if slices.Equal(got, sixFour) {
		t.Error("PROFILE at p = 1 is the 6:4 answer")
	}
}
