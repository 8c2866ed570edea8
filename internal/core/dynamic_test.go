package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// dynamicScenario uses GridNPB — bursty, phase-shifting traffic, the case
// the paper's §6 says static partitions fundamentally cannot handle.
func dynamicScenario() *Scenario {
	return &Scenario{
		Name:       "dynamic-test",
		Network:    topogen.Campus(),
		Engines:    3,
		Background: traffic.DefaultHTTP(40, 3),
		App:        apps.GridNPB{NumHosts: 10, Duration: 40},
		AppSeed:    2,
		PartSeed:   5,
	}
}

func TestRunDynamicValidation(t *testing.T) {
	crash := &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 5}}}
	for _, c := range []struct {
		name                    string
		interval, migrationCost float64
		faults                  *faults.Schedule
		want                    error
	}{
		{"negative interval", -10, 0, nil, ErrRunConfig},
		{"NaN interval", math.NaN(), 0, nil, ErrRunConfig},
		{"infinite interval", math.Inf(1), 0, nil, ErrRunConfig},
		{"negative infinite interval", math.Inf(-1), 0, nil, ErrRunConfig},
		{"more intervals than a run schedules", 1e-9, 0, nil, ErrRunConfig},
		{"crash schedule", 10, 0, crash, ErrRunConfig},
		{"NaN migration cost", 10, math.NaN(), nil, emu.ErrBadConfig},
	} {
		sc := dynamicScenario()
		sc.Faults = c.faults
		if _, err := remapped(sc, c.interval, c.migrationCost); !errors.Is(err, c.want) {
			t.Errorf("%s: error %v, want %v", c.name, err, c.want)
		}
	}
}

// The scenario's EndTime and straggler schedule carry into the one dynamic
// run, as they do into Run.
func TestRunDynamicKeepsScenarioSettings(t *testing.T) {
	run := func(straggle bool) *Outcome {
		sc := dynamicScenario()
		sc.EndTime = 25
		if straggle {
			sc.Faults = &faults.Schedule{Stragglers: []faults.Straggler{{Engine: 0, From: 0, To: 25, Factor: 4}}}
		}
		res, err := remapped(sc, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, slowed := run(false), run(true)
	if end := plain.Result.Kernel.VirtualEnd; end > 25 {
		t.Errorf("run ended at %g, past the scenario's EndTime 25", end)
	}
	if slowed.Result.AppTime <= plain.Result.AppTime {
		t.Errorf("straggler schedule ignored: app time %g, %g without it", slowed.Result.AppTime, plain.Result.AppTime)
	}
	if !slices.Equal(slowed.Result.FlowFCTs, plain.Result.FlowFCTs) {
		t.Error("a straggler changed what the network did")
	}
}

func TestRunDynamicSegments(t *testing.T) {
	sc := dynamicScenario()
	res, err := remapped(sc, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 4 {
		t.Fatalf("segments = %d, want 4", len(res.Segments))
	}
	if res.Segments[0].Migrations != 0 {
		t.Error("first segment cannot have migrations")
	}
	var flows int
	for _, s := range res.Segments {
		flows += s.Flows
	}
	w, _ := sc.Workload()
	if flows != len(w.Flows) {
		t.Errorf("segments carry %d flows, workload has %d", flows, len(w.Flows))
	}
	if res.Result.AppTime <= 0 || res.Result.NetTime <= 0 {
		t.Error("times not accumulated")
	}
	// A segment measures the run between its barriers: its imbalance is the
	// engine series' over its five 2 s buckets (the last takes the drain),
	// up to the windows a barrier splits, and the cross-engine bytes add up.
	var cross int64
	for i, s := range res.Segments {
		loads := make([]float64, sc.Engines)
		for b, row := range res.Result.EngineSeries.Loads {
			if b/5 == i || i == len(res.Segments)-1 && b/5 > i {
				for e, x := range row {
					loads[e] += x
				}
			}
		}
		if want := metrics.Imbalance(loads); math.Abs(s.Imbalance-want) > 0.01 {
			t.Errorf("segment %d imbalance %.4f, its buckets' %.4f", i, s.Imbalance, want)
		}
		cross += s.CrossEngineBytes
	}
	if cross != res.Result.Telemetry.CrossEngineBytes {
		t.Errorf("segments carry %d cross-engine bytes, the run %d", cross, res.Result.Telemetry.CrossEngineBytes)
	}
}

func TestRunDynamicRemapsAndCharges(t *testing.T) {
	sc := dynamicScenario()
	free, err := remapped(sc, 10, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	costly, err := remapped(dynamicScenario(), 10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if free.Migrations != costly.Migrations {
		t.Fatalf("migration counts differ: %d vs %d", free.Migrations, costly.Migrations)
	}
	if free.Migrations > 0 {
		wantExtra := float64(free.Migrations) * 1.0
		got := costly.Result.AppTime - free.Result.AppTime
		if got < wantExtra*0.9 {
			t.Errorf("migration cost not charged: extra %.2f, want ~%.2f", got, wantExtra)
		}
	}
}

func TestRunDynamicBeatsStaticPerSegment(t *testing.T) {
	// The point of dynamic remapping: per-interval imbalance should not be
	// worse than a static TOP partition's per-interval imbalance.
	sc := dynamicScenario()
	dyn, err := remapped(sc, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	static, err := dynamicScenario().Run(context.Background(), mapping.Top)
	if err != nil {
		t.Fatal(err)
	}
	staticFine := static.Result.EngineSeries.ImbalancePerBucket()
	var staticMean float64
	n := 0
	for _, x := range staticFine {
		if x > 0 {
			staticMean += x
			n++
		}
	}
	if n > 0 {
		staticMean /= float64(n)
	}
	if dyn.MeanSegmentImbalance > staticMean*1.25 {
		t.Errorf("dynamic per-segment imbalance %.3f much worse than static %.3f",
			dyn.MeanSegmentImbalance, staticMean)
	}
}

// TestRunDynamicTelemetryFeed is the closed-loop acceptance criterion:
// a remapped run repartitions from the live telemetry plane, whose PROFILE summary
// emu's TestTelemetryMatchesNetFlowProfile holds DeepEqual to the offline
// NetFlow pipeline's — so what is checked here is that the feed is live: the
// run remaps, and carries the traffic-plane extras.
func TestRunDynamicTelemetryFeed(t *testing.T) {
	telFed, err := remapped(dynamicScenario(), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(telFed.Segments) < 2 || telFed.Migrations == 0 {
		t.Fatalf("%d segments, %d migrations: the measured traffic never moved a node",
			len(telFed.Segments), telFed.Migrations)
	}
	// The run carries the traffic-plane extras.
	if telFed.Result.Telemetry.CrossEngineBytes == 0 {
		t.Error("telemetry-fed run reports no cross-engine bytes")
	}
	tl := telFed.Result.Telemetry.Timeline
	if len(tl) == 0 {
		t.Error("telemetry-fed run has an empty traffic timeline")
	}
	// One run, one timeline: its windows are strictly increasing in time
	// across the remaps.
	for i := 1; i < len(tl); i++ {
		if tl[i].Time <= tl[i-1].Time {
			t.Fatalf("timeline not strictly increasing at %d: %v", i, tl[i])
		}
	}
}

// TestDynamicRemapNeverChangesTheNetwork is the paper's premise (emu's
// TestMappingNeverChangesTheNetwork) for remapping during the run: from every
// starting approach, under every policy and both transports, the dynamic run
// delivers every flow at the instant the static TOP run does, drops the same
// packets and loads every link alike.
func TestDynamicRemapNeverChangesTheNetwork(t *testing.T) {
	for _, transport := range []emu.TransportMode{emu.Blast, emu.TCPSlowStart} {
		sc := dynamicScenario()
		sc.Transport = transport
		static, err := sc.Run(context.Background(), mapping.Top)
		if err != nil {
			t.Fatal(err)
		}
		want := static.Result
		for _, a := range mapping.Approaches() {
			for _, p := range []RemapPolicy{RemapProfile, RemapGame, RemapDiffusion} {
				sc := dynamicScenario()
				sc.Transport, sc.Remap, sc.RemapEvery = transport, p, 10
				o, err := sc.Run(context.Background(), a)
				if err != nil {
					t.Fatal(err)
				}
				if o.Migrations == 0 {
					t.Errorf("transport %d %s from %s: no node moved, so nothing is compared", transport, p, a)
				}
				got := o.Result
				if !slices.Equal(got.FlowFCTs, want.FlowFCTs) || got.DroppedPackets != want.DroppedPackets || !slices.Equal(got.LinkBytes, want.LinkBytes) {
					t.Errorf("transport %d %s from %s: completion times equal %v, drops %d against %d, link bytes equal %v",
						transport, p, a, slices.Equal(got.FlowFCTs, want.FlowFCTs), got.DroppedPackets, want.DroppedPackets,
						slices.Equal(got.LinkBytes, want.LinkBytes))
				}
			}
		}
	}
}

// remapped runs sc from TOP, remapped every interval virtual seconds at
// migrationCost per migrated node.
func remapped(sc *Scenario, interval, migrationCost float64) (*Outcome, error) {
	sc.RemapEvery, sc.MigrationCost = interval, migrationCost
	return sc.Run(context.Background(), mapping.Top)
}
