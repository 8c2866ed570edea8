package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mapping"
	"repro/internal/netgraph"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// scaleTopSHA is the SHA-256 of the 10⁵-router TOP assignment written as
// "p0,p1,...", recorded before the refiner kept its connectivity current
// across moves: the partitioner's speed-ups must not change it.
const scaleTopSHA = "8679651af73f3a1ed4edb62218368923a146ce6d530860a33caed0334d4287c1"

// TestMemoryScalableRoutingEndToEnd is the tentpole acceptance test: a
// 10⁵-router topology builds, partitions (TOP), and emulates end to end
// through core with the automatic routing policy — which must have selected
// the lazy oracle and stayed far below the flat table's 4·n² bytes
// (~40 GB at this size; the whole point of the redesign). The assignment is
// pinned (scaleTopSHA).
func TestMemoryScalableRoutingEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and partitions a 10⁵-router topology")
	}
	nw, err := topogen.ScaleFree(topogen.ScaleFreeConfig{
		Routers: 100_000, Hosts: 200, LinksPerNewRouter: 2, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scenario{Name: "scale-100k", Network: nw, Engines: 8, PartSeed: 7}

	// A light workload between spread hosts: the lazy oracle only pays for
	// the rows the flows actually touch.
	hosts := SpreadHosts(nw, 40)
	w := traffic.Workload{Duration: 5, AppHosts: hosts}
	for i := 0; i < 20; i++ {
		w.Flows = append(w.Flows, traffic.Flow{
			ID: i, Src: hosts[i], Dst: hosts[(i+17)%len(hosts)],
			Start: 0.1 * float64(i), Bytes: 1 << 20, Tag: "scale",
		})
	}
	sc.SetWorkload(w)

	o, err := sc.Run(context.Background(), mapping.Top)
	if err != nil {
		t.Fatal(err)
	}
	if o.Result.AppTime <= 0 {
		t.Fatalf("emulation did no work: %+v", o.Result)
	}
	h := sha256.New()
	for _, p := range o.Assignment {
		fmt.Fprintf(h, "%d,", p)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != scaleTopSHA {
		t.Errorf("assignment sha %s, pinned %s", got, scaleTopSHA)
	}

	routes, err := sc.Routes()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := routes.(*netgraph.LazyRouting); !ok {
		t.Fatalf("auto policy picked %T at 10⁵ nodes, want the lazy oracle", routes)
	}
	n := int64(nw.NumNodes())
	flatBytes := 4 * n * n
	if got := routes.MemoryBytes(); got >= flatBytes/100 {
		t.Fatalf("routing holds %d bytes, not sub-quadratic (flat would be %d)", got, flatBytes)
	}
	empty, err := netgraph.NewLazyRouting(nw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if routes.MemoryBytes() <= empty.MemoryBytes() {
		t.Fatal("lazy oracle computed no rows — flows were not routed through it")
	}
	if sc.Network.RoutingBuilds() != 0 {
		t.Fatalf("a dense table was built %d times on the 10⁵ topology", sc.Network.RoutingBuilds())
	}
}

// TestLazyBackendMatchesFlatEndToEnd runs the identical Campus scenario under
// the flat table and the lazy oracle: every result the emulator reports must
// be identical, because lazy rows come from the same Dijkstra builder.
func TestLazyBackendMatchesFlatEndToEnd(t *testing.T) {
	run := func(o netgraph.RoutingOptions) *Outcome {
		sc := campusScenario(false)
		sc.Routing = o
		out, err := sc.Run(context.Background(), mapping.Profile)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	flat := run(netgraph.RoutingOptions{Backend: netgraph.Flat})
	lazy := run(netgraph.RoutingOptions{Backend: netgraph.Lazy, LazyRows: 16})

	if !reflect.DeepEqual(flat.Assignment, lazy.Assignment) {
		t.Fatal("flat and lazy produced different partitions")
	}
	fr, lr := flat.Result, lazy.Result
	if fr.AppTime != lr.AppTime || fr.NetTime != lr.NetTime || fr.Imbalance != lr.Imbalance {
		t.Fatalf("headline metrics differ: flat {%g %g %g}, lazy {%g %g %g}",
			fr.AppTime, fr.NetTime, fr.Imbalance, lr.AppTime, lr.NetTime, lr.Imbalance)
	}
	if !reflect.DeepEqual(fr.EngineLoads, lr.EngineLoads) {
		t.Fatal("per-engine loads differ between flat and lazy routing")
	}
	if !reflect.DeepEqual(fr.FlowFCTs, lr.FlowFCTs) {
		t.Fatal("flow completion times differ between flat and lazy routing")
	}
}

// TestScenarioRoutingOptions covers the Routing field's path into the
// scenario's route oracle.
func TestScenarioRoutingOptions(t *testing.T) {
	sc := campusScenario(false)
	sc.Routing = netgraph.RoutingOptions{Backend: netgraph.Lazy, LazyRows: 8}
	r, err := sc.Routes()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Network.SharedRouting(netgraph.RoutingOptions{Backend: netgraph.Lazy, LazyRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*netgraph.LazyRouting); !ok || r != want {
		t.Fatalf("Routing not applied: got %T %p, want the 8-row lazy oracle %p", r, r, want)
	}

	// Invalid options surface as ErrRoutingConfig through the scenario.
	sc3 := campusScenario(false)
	sc3.Routing = netgraph.RoutingOptions{Backend: netgraph.Lazy, LazyRows: -5}
	if _, err := sc3.Routes(); err == nil {
		t.Fatal("invalid routing options must fail the run")
	}
}
