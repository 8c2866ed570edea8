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

// TestMemoryScalableRoutingEndToEnd is the scale acceptance test: a
// 10⁵-router topology builds, partitions (TOP), and emulates end to end
// through core on one shared route oracle, which must stay far below the
// 4·n² bytes of an all-pairs table (~40 GB at this size) while holding the
// rows the flows touched. The assignment is pinned (scaleTopSHA).
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
	n := int64(nw.NumNodes())
	allPairs := 4 * n * n
	if got := routes.MemoryBytes(); got >= allPairs/100 {
		t.Fatalf("routing holds %d bytes, not sub-quadratic (all pairs would take %d)", got, allPairs)
	}
	empty, err := netgraph.NewLazyRouting(nw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if routes.MemoryBytes() <= empty.MemoryBytes() {
		t.Fatal("the oracle computed no rows — flows were not routed through it")
	}
	if got := sc.Network.RoutingBuilds(); got != 1 {
		t.Fatalf("the scenario built its route oracle %d times on the 10⁵ topology, want once", got)
	}
}

// TestLazyBackendMatchesFlatEndToEnd runs the identical Campus PROFILE
// pipeline on the scenario's shared oracle, which holds every core row as
// the flat table did, and by hand on a 4-row oracle that evicts and
// rebuilds rows throughout: every result the emulator reports must be
// identical, because both oracles build rows with the same Dijkstra.
func TestLazyBackendMatchesFlatEndToEnd(t *testing.T) {
	ctx := context.Background()
	sc := campusScenario(false)
	flat, err := sc.Run(ctx, mapping.Profile)
	if err != nil {
		t.Fatal(err)
	}

	small, err := netgraph.NewLazyRouting(sc.Network, 4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sc.MappingInput()
	if err != nil {
		t.Fatal(err)
	}
	in.Routes = small
	topPart, err := mapping.TopMap(in)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.emuConfig(topPart)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Routes, cfg.Profile = small, true
	prof, err := sc.start(ctx, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	in.Summary = prof.NetFlow.Summarize()
	part, err := mapping.ProfileMap(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flat.Assignment, part) {
		t.Fatal("the full and the 4-row oracle produced different partitions")
	}
	if cfg, err = sc.emuConfig(part); err != nil {
		t.Fatal(err)
	}
	cfg.Routes = small
	lr, err := sc.start(ctx, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := small.MemoryBytes(); s >= sc.Network.SharedRouting().MemoryBytes() {
		t.Fatalf("the 4-row oracle holds %d bytes, no fewer than the full one", s)
	}

	fr := flat.Result
	if fr.AppTime != lr.AppTime || fr.NetTime != lr.NetTime || fr.Imbalance != lr.Imbalance {
		t.Fatalf("headline metrics differ: all rows {%g %g %g}, 4 rows {%g %g %g}",
			fr.AppTime, fr.NetTime, fr.Imbalance, lr.AppTime, lr.NetTime, lr.Imbalance)
	}
	if !reflect.DeepEqual(fr.EngineLoads, lr.EngineLoads) {
		t.Fatal("per-engine loads differ between the full and the 4-row oracle")
	}
	if !reflect.DeepEqual(fr.FlowFCTs, lr.FlowFCTs) {
		t.Fatal("flow completion times differ between the full and the 4-row oracle")
	}
}
