package emu

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func telConfig(sequential bool) Config {
	return Config{
		Network:    lineNet(),
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   spreadFlows(8, 8),
		Sequential: sequential,
	}
}

// TestTelemetrySnapshotConsistency cross-checks the snapshot against the
// emulator's own independently-maintained result counters, on a run that
// tail-drops and on one that crashes: after a recovery has replayed windows the
// snapshot still agrees, which it only can if telemetry was rolled back at the
// same barrier as the rest of the run — no replayed traffic counted twice.
func TestTelemetrySnapshotConsistency(t *testing.T) {
	drops := telConfig(false)
	drops.BufferBytes = 16 << 10 // small enough that the blast below tail-drops
	drops.Workload = traffic.Workload{Duration: 8}
	for i := 0; i < 4; i++ {
		drops.Workload.Flows = append(drops.Workload.Flows, traffic.Flow{
			ID: i, Src: 0, Dst: 3, Start: 0, Bytes: 256 << 10, Tag: "t",
		})
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"buffered-drops", drops},
		{"crash-replay", faultedConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg, WithTelemetry(telemetry.New()))
			if err != nil {
				t.Fatal(err)
			}
			if tc.cfg.BufferBytes > 0 && res.DroppedPackets == 0 {
				t.Error("buffered run dropped nothing; drop accounting untested")
			}
			if tc.cfg.Faults != nil && (res.Recovery == nil || res.Recovery.ReplayedEvents == 0) {
				t.Error("fault schedule replayed nothing; rollback untested")
			}
			checkSnapshotConsistency(t, res)
		})
	}
}

func checkSnapshotConsistency(t *testing.T, res *Result) {
	s := res.Telemetry
	if s == nil {
		t.Fatal("Result.Telemetry missing")
	}
	if !reflect.DeepEqual(s.LinkTxBytes, res.LinkBytes) {
		t.Errorf("LinkTxBytes %v != Result.LinkBytes %v", s.LinkTxBytes, res.LinkBytes)
	}
	if s.DroppedPackets != res.DroppedPackets {
		t.Errorf("drops %d != Result %d", s.DroppedPackets, res.DroppedPackets)
	}
	var completed int64
	for _, fct := range res.FlowFCTs {
		if fct >= 0 {
			completed++
		}
	}
	if s.FlowsCompleted != completed {
		t.Errorf("flows completed %d != %d", s.FlowsCompleted, completed)
	}
	for lp, load := range res.EngineLoads {
		if float64(s.EngineCharges[lp]) != load {
			t.Errorf("engine %d charges %d != load %g", lp, s.EngineCharges[lp], load)
		}
	}
	if s.Imbalance != res.Imbalance {
		t.Errorf("imbalance %g != %g", s.Imbalance, res.Imbalance)
	}
	// Nodes 0,1 on engine 0 and 2,3 on engine 1: every flow crosses, so the
	// matrix must have off-diagonal traffic, and the full matrix must cover
	// every transmitted byte.
	if s.CrossEngineBytes == 0 {
		t.Error("cut assignment produced no cross-engine bytes")
	}
	var linkTotal int64
	for _, b := range s.LinkTxBytes {
		linkTotal += b
	}
	if s.TotalBytes != linkTotal {
		t.Errorf("matrix total %d != link total %d", s.TotalBytes, linkTotal)
	}
	if s.Windows != res.Kernel.Windows {
		t.Errorf("windows %d != kernel %d", s.Windows, res.Kernel.Windows)
	}
	if len(s.Timeline) == 0 {
		t.Error("empty timeline")
	}
	var cross int64
	for _, p := range s.Timeline {
		cross += p.CrossEngineBytes
	}
	if cross != s.CrossEngineBytes {
		t.Errorf("timeline cross bytes %d != snapshot %d", cross, s.CrossEngineBytes)
	}
	if s.QueueDelay.Count == 0 {
		t.Error("no queue-delay observations")
	}
	if s.FCT.Count != completed {
		t.Errorf("FCT histogram count %d != completed %d", s.FCT.Count, completed)
	}
}

// TestTelemetryDeterministic: identical runs — including under the parallel
// kernel — publish byte-identical /trafficmatrix JSON and /metrics bodies,
// the same contract as the obs trace.
func TestTelemetryDeterministic(t *testing.T) {
	render := func() (string, string) {
		tel := telemetry.New()
		if _, err := Run(telConfig(false), WithTelemetry(tel)); err != nil {
			t.Fatal(err)
		}
		var m bytes.Buffer
		if err := telemetry.WriteMatrixJSON(&m, tel.Snapshot()); err != nil {
			t.Fatal(err)
		}
		var e strings.Builder
		if err := tel.Metrics().WriteExposition(&e); err != nil {
			t.Fatal(err)
		}
		return m.String(), e.String()
	}
	m1, e1 := render()
	m2, e2 := render()
	if m1 != m2 {
		t.Error("trafficmatrix JSON differs between identical runs")
	}
	if e1 != e2 {
		t.Error("Prometheus exposition differs between identical runs")
	}
	if !strings.Contains(e1, "massf_traffic_matrix_bytes_total") {
		t.Error("exposition missing traffic matrix family")
	}
}

// TestTelemetryCollectorReuse: one collector across two runs reports only the
// latest run (the live massf endpoint reuses one mount).
func TestTelemetryCollectorReuse(t *testing.T) {
	tel := telemetry.New()
	if _, err := Run(telConfig(true), WithTelemetry(tel)); err != nil {
		t.Fatal(err)
	}
	first := tel.Snapshot()
	if _, err := Run(telConfig(true), WithTelemetry(tel)); err != nil {
		t.Fatal(err)
	}
	second := tel.Snapshot()
	if !reflect.DeepEqual(first.MatrixBytes, second.MatrixBytes) {
		t.Error("identical reruns differ")
	}
	if second.TotalBytes != first.TotalBytes {
		t.Errorf("reuse accumulated across runs: %d vs %d", second.TotalBytes, first.TotalBytes)
	}
}

// TestTelemetryDisabledZeroAddedAllocs is the disabled-path cost gate: a run
// with telemetry disabled must have the exact allocation profile of a run
// with no telemetry option at all — the per-packet hot path sees only a nil
// check. (The collector's own observe methods are AllocsPerRun(0)-gated in
// internal/telemetry; this pins that emu adds nothing outside the guards.)
func TestTelemetryDisabledZeroAddedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own schedule: an exact allocation count flickers by one")
	}
	cfg := telConfig(true)
	// Warm the shared routing cache so neither measurement pays the one-time
	// build.
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	off := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg, WithTelemetry(nil)); err != nil {
			t.Fatal(err)
		}
	})
	if off > base {
		t.Errorf("disabled telemetry allocates more than the bare path: %.1f > %.1f per run", off, base)
	}
}

func benchConfig() Config {
	cfg := telConfig(true)
	cfg.Workload = spreadFlows(64, 8)
	return cfg
}

// BenchmarkEmuTelemetryOff is the telemetry-disabled side of the pair; CI runs
// both once as a smoke test, and go run ./bench measures the ratio
// (telemetry.tax).
func BenchmarkEmuTelemetryOff(b *testing.B) {
	cfg := benchConfig()
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmuTelemetryOn measures the enabled-path overhead: full matrix,
// link, histogram and series accounting plus measurement-window publication.
func BenchmarkEmuTelemetryOn(b *testing.B) {
	cfg := benchConfig()
	tel := telemetry.New()
	if _, err := Run(cfg, WithTelemetry(tel)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, WithTelemetry(tel)); err != nil {
			b.Fatal(err)
		}
	}
}
