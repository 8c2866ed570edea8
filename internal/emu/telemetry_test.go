package emu

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func telConfig() Config {
	return Config{
		Network:    lineNet(),
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   spreadFlows(8, 8),
	}
}

// TestTelemetrySnapshotConsistency cross-checks the snapshot against the
// emulator's own independently-maintained result counters, on a run that
// tail-drops and on one that crashes: after a recovery has remapped the nodes
// the snapshot still agrees — no traffic counted twice.
func TestTelemetrySnapshotConsistency(t *testing.T) {
	drops := telConfig()
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

// TestTelemetryCrashPinned pins every byte the traffic plane publishes for the
// crash run of TestTelemetrySnapshotConsistency/crash-replay and for the same
// crash detected in the middle of a measurement window (t=2.7, buckets end at
// 2 and 4), where the traffic before the recovery must be binned by the
// assignment it ran under. The SHA-256 values were recorded at commit 74e6511,
// while the matrix was still counted packet by packet.
func TestTelemetryCrashPinned(t *testing.T) {
	midBucket := faultedConfig()
	midBucket.Faults = &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 2.7}}}
	for _, tc := range []struct {
		name               string
		cfg                Config
		matrix, exposition string
	}{
		{"crash-replay", faultedConfig(),
			"016ad45b2a4b544fdc52827ada02939b1b1dc55f55dabc981cbc55df31fcb958",
			"31fd9c4bc70b707fe5eeec9f55f0abf5aded2be3627c86cd8ae5d35138f0aff8"},
		{"crash-mid-bucket", midBucket,
			"1f7ee704861e3613b3b03d5587d7a6240ee97dcb88d932936928ff15b72c2962",
			"cbc87738214fa1ea289ebdffb75f6fe6fde8b6501f1e0bf137527ac8f76a10f8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.New()
			res, err := Run(tc.cfg, WithTelemetry(tel))
			if err != nil {
				t.Fatal(err)
			}
			if res.Recovery == nil || res.Recovery.Migrations == 0 {
				t.Fatal("the crash moved no node; the remapped matrix is not pinned")
			}
			var m, e bytes.Buffer
			if err := telemetry.WriteMatrixJSON(&m, tel.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if err := tel.WriteExposition(&e); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(m.Bytes())); got != tc.matrix {
				t.Errorf("trafficmatrix sha256 = %s, want %s", got, tc.matrix)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(e.Bytes())); got != tc.exposition {
				t.Errorf("exposition sha256 = %s, want %s", got, tc.exposition)
			}
		})
	}
}

// TestTelemetryDeterministic: identical runs — including under the parallel
// kernel — publish byte-identical /trafficmatrix JSON and /metrics bodies,
// the same contract as the obs trace.
func TestTelemetryDeterministic(t *testing.T) {
	render := func() (string, string) {
		tel := telemetry.New()
		if _, err := Run(telConfig(), WithTelemetry(tel)); err != nil {
			t.Fatal(err)
		}
		var m bytes.Buffer
		if err := telemetry.WriteMatrixJSON(&m, tel.Snapshot()); err != nil {
			t.Fatal(err)
		}
		var e strings.Builder
		if err := tel.WriteExposition(&e); err != nil {
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

// TestTelemetryLiveScrape: a reader loops the /metrics and /trafficmatrix
// renders while the run writes the collector, as a live massf endpoint does.
// Under -race this checks that both read only under the collector's lock;
// either way, the bodies after the run equal those of a run nobody scraped.
func TestTelemetryLiveScrape(t *testing.T) {
	render := func(tel *telemetry.Collector) (string, string) {
		var m, e bytes.Buffer
		if err := telemetry.WriteMatrixJSON(&m, tel.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if err := tel.WriteExposition(&e); err != nil {
			t.Fatal(err)
		}
		return m.String(), e.String()
	}
	quiet := telemetry.New()
	if _, err := Run(benchConfig(), WithTelemetry(quiet)); err != nil {
		t.Fatal(err)
	}
	wantM, wantE := render(quiet)

	// The run starts only once the reader has scraped: a run that finishes
	// within one scheduler slice must still have a reader going beside it.
	tel := telemetry.New()
	started, stop, done := make(chan struct{}), make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			if err := tel.WriteExposition(io.Discard); err != nil {
				t.Error(err)
			}
			_ = tel.Snapshot()
			if n++; n == 1 {
				close(started)
			}
			select {
			case <-stop:
				done <- n
				return
			default:
			}
		}
	}()
	<-started
	_, err := Run(benchConfig(), WithTelemetry(tel))
	close(stop)
	if n := <-done; n == 0 {
		t.Error("the reader never scraped")
	}
	if err != nil {
		t.Fatal(err)
	}
	if m, e := render(tel); m != wantM || e != wantE {
		t.Error("a scraped run's final bodies differ from an unscraped run's")
	}
}

// TestTelemetryCollectorReuse: one collector across two runs reports only the
// latest run (the live massf endpoint reuses one mount).
func TestTelemetryCollectorReuse(t *testing.T) {
	tel := telemetry.New()
	if _, err := Run(telConfig(), WithTelemetry(tel)); err != nil {
		t.Fatal(err)
	}
	first := tel.Snapshot()
	if _, err := Run(telConfig(), WithTelemetry(tel)); err != nil {
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

// TestDisabledSinksZeroAddedAllocs is the disabled-path cost gate of every
// sink option: a run given a nil telemetry collector, tracing timeline or
// recorder must have the exact allocation profile of a run with no option at
// all — the per-packet hot path and the window commit see only nil checks.
// (The collector's own observe methods are AllocsPerRun(0)-gated in
// internal/telemetry; this pins that emu adds nothing outside the guards.)
func TestDisabledSinksZeroAddedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own schedule: an exact allocation count flickers by one")
	}
	cfg := telConfig()
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
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"telemetry", WithTelemetry(nil)},
		{"trace", WithTrace(nil)},
		{"recorder", WithRecorder(nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off := testing.AllocsPerRun(5, func() {
				if _, err := Run(cfg, tc.opt); err != nil {
					t.Fatal(err)
				}
			})
			if off > base {
				t.Errorf("a nil %s sink allocates more than the bare path: %.1f > %.1f per run", tc.name, off, base)
			}
		})
	}
}

func benchConfig() Config {
	cfg := telConfig()
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

// BenchmarkEmuTelemetryOn measures the enabled-path overhead: the queue-delay
// and FCT observations, the per-window commit, and the fold and publication
// at every measurement-window crossing.
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
