package repro

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/mapping"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/topogen"
)

// The facade is a thin re-export layer; these tests pin that the exported
// names compose into working flows. Where a flow needs a name the facade does
// not re-export, the test imports the internal package directly.

func TestFacadeTopologies(t *testing.T) {
	for _, name := range []string{"Campus", "TeraGrid", "Brite", "Brite-large"} {
		nw, err := topogen.ByName(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if nw.NumNodes() == 0 {
			t.Fatalf("%s: empty network", name)
		}
	}
	if _, err := topogen.ByName("nope", 1); err == nil {
		t.Error("unknown topology accepted")
	}
	nw, err := Brite(BriteConfig{Routers: 20, Hosts: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumRouters() != 20 {
		t.Error("Brite facade wrong")
	}
}

func TestFacadePartition(t *testing.T) {
	g := partition.NewGraph(12, 1)
	for v := 0; v < 12; v++ {
		g.AddEdge(v, (v+1)%12, 1)
	}
	part, err := partition.Partition(g, 3, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != 12 {
		t.Fatal("bad assignment length")
	}
	moved, err := partition.Improve(g, part, 3, partition.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if moved < 0 {
		t.Fatal("negative moves")
	}
}

func TestFacadeScenarioWithAllBackgrounds(t *testing.T) {
	nw := Campus()
	scenarios := []*Scenario{
		{Network: nw, Engines: 2, Background: DefaultHTTP(5, 1)},
	}
	for i, sc := range scenarios {
		out, err := sc.Run(context.Background(), Place)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if out.Result.Kernel.TotalCharges() == 0 {
			t.Fatalf("scenario %d: no load", i)
		}
	}
}

func TestFacadeRunEmulation(t *testing.T) {
	nw := Campus()
	w := DefaultHTTP(5, 2).Generate(nw)
	assign := make([]int, nw.NumNodes())
	for v := range assign {
		assign[v] = v % 2
	}
	res, err := RunEmulation(EmuConfig{
		Network: nw, Assignment: assign, NumEngines: 2, Workload: w,
		Transport: emu.TCPSlowStart,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Imbalance < 0 {
		t.Fatal("negative imbalance")
	}
}

func TestFacadeApproachConstants(t *testing.T) {
	if len(Approaches()) != 3 {
		t.Fatal("Approaches() wrong")
	}
	if Top != "TOP" || Place != "PLACE" || Profile != "PROFILE" {
		t.Error("approach constants wrong")
	}
	if mapping.KCluster != "KCLUSTER" || mapping.Hier != "HIER" {
		t.Error("baseline constants wrong")
	}
}

func TestFacadeApps(t *testing.T) {
	s := DefaultScaLapack()
	if s.Hosts() != 10 {
		t.Error("ScaLapack hosts")
	}
	g := DefaultGridNPB()
	if g.Hosts() != 10 {
		t.Error("GridNPB hosts")
	}
	nw := TeraGrid()
	hosts := SpreadHosts(nw, 10)
	if len(hosts) != 10 {
		t.Error("SpreadHosts")
	}
	w, err := s.Generate(hosts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Flows) == 0 {
		t.Error("no app flows")
	}
}

func TestFacadeDynamic(t *testing.T) {
	app := DefaultGridNPB()
	app.Duration = 12
	sc := &Scenario{
		Network: Campus(), Engines: 2,
		Background: DefaultHTTP(12, 1),
		App:        app, AppSeed: 1,
	}
	sc.RemapEvery, sc.MigrationCost = 6, 0.01
	res, err := sc.Run(context.Background(), Top)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(res.Segments))
	}
}

func TestFacadeTelemetry(t *testing.T) {
	tel := NewTelemetry()
	sc := &Scenario{
		Network: Campus(), Engines: 2,
		Background:         DefaultHTTP(5, 1),
		TelemetryCollector: tel,
	}
	out, err := sc.Run(context.Background(), Top)
	if err != nil {
		t.Fatal(err)
	}
	var snap *telemetry.Snapshot = out.Result.Telemetry
	if snap == nil || snap.TotalBytes == 0 {
		t.Fatal("no telemetry measured")
	}
	var tp []telemetry.TrafficPoint = snap.Timeline
	if len(tp) == 0 {
		t.Error("empty timeline")
	}
	var b strings.Builder
	if err := telemetry.WriteMatrixJSON(&b, snap); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"matrixBytes"`) {
		t.Error("matrix JSON incomplete")
	}
	srv, base, err := ServeDebug("127.0.0.1:0", MountTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "massf_forwarded_bytes_total") {
		t.Errorf("exposition incomplete:\n%.200s", body)
	}
}
