package core

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/mapping"
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
	sc := dynamicScenario()
	if _, err := sc.RunDynamic(context.Background(), 0, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestRunDynamicSegments(t *testing.T) {
	sc := dynamicScenario()
	res, err := sc.RunDynamic(context.Background(), 10, 0)
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
	if res.AppTime <= 0 || res.NetTime <= 0 {
		t.Error("times not accumulated")
	}
}

func TestRunDynamicRemapsAndCharges(t *testing.T) {
	sc := dynamicScenario()
	free, err := sc.RunDynamic(context.Background(), 10, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	costly, err := dynamicScenario().RunDynamic(context.Background(), 10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if free.Migrations != costly.Migrations {
		t.Fatalf("migration counts differ: %d vs %d", free.Migrations, costly.Migrations)
	}
	if free.Migrations > 0 {
		wantExtra := float64(free.Migrations) * 1.0
		got := costly.AppTime - free.AppTime
		if got < wantExtra*0.9 {
			t.Errorf("migration cost not charged: extra %.2f, want ~%.2f", got, wantExtra)
		}
	}
}

func TestRunDynamicBeatsStaticPerSegment(t *testing.T) {
	// The point of dynamic remapping: per-interval imbalance should not be
	// worse than a static TOP partition's per-interval imbalance.
	sc := dynamicScenario()
	dyn, err := sc.RunDynamic(context.Background(), 10, 0)
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
// RunDynamic repartitions from the live telemetry plane, whose PROFILE summary
// emu's TestTelemetryMatchesNetFlowProfile holds DeepEqual to the offline
// NetFlow pipeline's — so what is checked here is that the feed is live: the
// run remaps, and carries the traffic-plane extras.
func TestRunDynamicTelemetryFeed(t *testing.T) {
	telFed, err := dynamicScenario().RunDynamic(context.Background(), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(telFed.Segments) < 2 || telFed.Migrations == 0 {
		t.Fatalf("%d segments, %d migrations: the measured traffic never moved a node",
			len(telFed.Segments), telFed.Migrations)
	}
	// The run carries the traffic-plane extras.
	if telFed.CrossEngineBytes == 0 {
		t.Error("telemetry-fed run reports no cross-engine bytes")
	}
	if len(telFed.Timeline()) == 0 {
		t.Error("telemetry-fed run has an empty traffic timeline")
	}
	// Each segment's windows are strictly increasing in time. (Adjacent
	// segments may overlap in absolute time: flows drain past the interval
	// boundary, so a segment's measurement can extend beyond its nominal end.)
	for _, s := range telFed.Segments {
		for i := 1; i < len(s.Timeline); i++ {
			if s.Timeline[i].Time <= s.Timeline[i-1].Time {
				t.Fatalf("segment at %g: timeline not strictly increasing at %d: %v",
					s.Start, i, s.Timeline[i])
			}
		}
	}
}

func TestRunDynamicIncrementalFewerMigrations(t *testing.T) {
	full := dynamicScenario()
	fullRes, err := full.RunDynamic(context.Background(), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	inc := dynamicScenario()
	inc.Remap = RemapIncremental
	incRes, err := inc.RunDynamic(context.Background(), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fullRes.Migrations > 0 && incRes.Migrations >= fullRes.Migrations {
		t.Errorf("incremental migrations %d >= full repartition %d",
			incRes.Migrations, fullRes.Migrations)
	}
	// Incremental balance may be looser but must stay in the same class.
	if incRes.MeanSegmentImbalance > fullRes.MeanSegmentImbalance*2+0.1 {
		t.Errorf("incremental segment imbalance %.3f far above full %.3f",
			incRes.MeanSegmentImbalance, fullRes.MeanSegmentImbalance)
	}
}
