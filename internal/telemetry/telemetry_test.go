package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/statetest"
)

func sizedCollector() *Collector {
	c := New()
	c.Reset(Dims{Engines: 2, Links: 3, BucketWidth: 2})
	return c
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	c.Commit(0, 1, []int64{1, 2})
	c.Finish(1)
	c.Restore(nil)
	if cp := c.Checkpoint(); cp != nil {
		t.Fatal("nil checkpoint not nil")
	}
	if s := c.Snapshot(); s == nil || s.Engines != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if err := c.CheckPartial(&Partial{Engines: []int{9}}); err != nil {
		t.Fatalf("nil collector checked a partial: %v", err)
	}
}

func TestUnsizedCommitIgnored(t *testing.T) {
	c := New()
	c.Commit(0, 1, []int64{5})
	c.Finish(1)
	if s := c.Snapshot(); s.Windows != 0 {
		t.Fatalf("unsized collector committed windows: %+v", s)
	}
}

func TestMatrixAndSnapshot(t *testing.T) {
	c := sizedCollector()
	// Engine 0 sends 3 packets / 3000 bytes to engine 1 over link 0 dir 0,
	// and 1 packet / 500 bytes to itself over link 1 dir 1.
	c.ObserveForward(0, 1, 0, 0, 3000, 3, 0.5e-3)
	c.ObserveForward(0, 0, 1, 1, 500, 1, 0)
	c.ObserveFlowComplete(1, 0.25)
	c.ObserveDrop(0, 2)
	c.Commit(0, 1, []int64{10, 30})
	c.Finish(8)

	s := c.Snapshot()
	if s.MatrixBytes[0][1] != 3000 || s.MatrixBytes[0][0] != 500 {
		t.Fatalf("matrix bytes = %v", s.MatrixBytes)
	}
	if s.MatrixPackets[0][1] != 3 {
		t.Fatalf("matrix packets = %v", s.MatrixPackets)
	}
	if s.CrossEngineBytes != 3000 || s.TotalBytes != 3500 {
		t.Fatalf("cross=%d total=%d", s.CrossEngineBytes, s.TotalBytes)
	}
	if s.LinkTxBytes[0] != 3000 || s.LinkTxBytes[1] != 500 || s.LinkTxBytes[2] != 0 {
		t.Fatalf("link tx bytes = %v", s.LinkTxBytes)
	}
	if s.FlowsCompleted != 1 || s.DroppedPackets != 2 {
		t.Fatalf("flows=%d drops=%d", s.FlowsCompleted, s.DroppedPackets)
	}
	if s.EngineCharges[0] != 10 || s.EngineCharges[1] != 30 {
		t.Fatalf("charges = %v", s.EngineCharges)
	}
	if s.Imbalance <= 0 {
		t.Fatalf("imbalance = %g, want > 0 for uneven charges", s.Imbalance)
	}
	if s.FCTP50 <= 0 {
		t.Fatalf("fct p50 = %g", s.FCTP50)
	}
	if s.VirtualTime != 8 || s.Windows != 1 {
		t.Fatalf("vt=%g windows=%d", s.VirtualTime, s.Windows)
	}
}

func TestSnapshotIsolatedFromLiveState(t *testing.T) {
	c := sizedCollector()
	c.ObserveForward(0, 1, 0, 0, 100, 1, 0)
	c.Commit(0, 1, []int64{1, 1})
	s := c.Snapshot()
	// Mutating hot state after the snapshot must not leak into it.
	c.ObserveForward(0, 1, 0, 0, 900, 9, 0)
	if s.MatrixBytes[0][1] != 100 {
		t.Fatalf("snapshot aliased live state: %v", s.MatrixBytes)
	}
	// And a snapshot without a new Commit still serves barrier-time data.
	if got := c.Snapshot().MatrixBytes[0][1]; got != 100 {
		t.Fatalf("unpublished data leaked: %d", got)
	}
}

func TestTimelineWindows(t *testing.T) {
	c := sizedCollector() // BucketWidth 2, Duration 8
	c.ObserveForward(0, 1, 0, 0, 1000, 1, 0)
	c.Commit(0, 1, []int64{4, 4})
	c.Commit(1, 2.5, []int64{4, 4}) // crosses the 2s boundary
	c.ObserveForward(1, 0, 0, 1, 500, 1, 0)
	c.Commit(2.5, 5, []int64{2, 6}) // crosses 4s
	c.Finish(8)

	s := c.Snapshot()
	if len(s.Timeline) != 2 {
		t.Fatalf("timeline = %+v, want exactly the 2 non-idle windows", s.Timeline)
	}
	if s.Timeline[0].Time != 2 || s.Timeline[0].CrossEngineBytes != 1000 {
		t.Fatalf("window 0 = %+v", s.Timeline[0])
	}
	if s.Timeline[0].Imbalance != 0 {
		t.Fatalf("balanced window imbalance = %g", s.Timeline[0].Imbalance)
	}
	if s.Timeline[1].Time != 4 || s.Timeline[1].CrossEngineBytes != 500 {
		t.Fatalf("window 1 = %+v", s.Timeline[1])
	}
	if s.Timeline[1].Imbalance <= 0 {
		t.Fatalf("uneven window imbalance = %g", s.Timeline[1].Imbalance)
	}
	// Total across the timeline covers all traffic exactly once.
	var cross int64
	for _, p := range s.Timeline {
		cross += p.CrossEngineBytes
	}
	if cross != 1500 {
		t.Fatalf("timeline cross bytes sum = %d, want 1500", cross)
	}
}

func TestCheckpointRestore(t *testing.T) {
	c := sizedCollector()
	c.ObserveForward(0, 1, 0, 0, 700, 7, 1e-3)
	c.Commit(0, 1, []int64{3, 3})
	cp := c.Checkpoint()

	// Diverge: traffic that a crash will force us to replay.
	c.ObserveForward(0, 1, 0, 0, 900, 9, 2e-3)
	c.ObserveFlowComplete(1, 0.5)
	c.ObserveDrop(0, 1)
	c.Commit(1, 3, []int64{5, 5})

	c.Restore(cp)
	c.Finish(8)
	s := c.Snapshot()
	if s.MatrixBytes[0][1] != 700 || s.MatrixPackets[0][1] != 7 {
		t.Fatalf("restore left matrix %v / %v", s.MatrixBytes, s.MatrixPackets)
	}
	if s.FlowsCompleted != 0 || s.DroppedPackets != 0 {
		t.Fatalf("restore left flows=%d drops=%d", s.FlowsCompleted, s.DroppedPackets)
	}
	if s.EngineCharges[0] != 3 {
		t.Fatalf("restore left charges %v", s.EngineCharges)
	}
	if s.LinkTxBytes[0] != 700 || s.LinkTxPackets[0] != 7 {
		t.Fatalf("restore left link 0 tx %d bytes / %d packets", s.LinkTxBytes[0], s.LinkTxPackets[0])
	}
	// The checkpoint must survive a second restore (rollback twice).
	c.ObserveForward(0, 1, 0, 0, 1100, 11, 0)
	c.Restore(cp)
	c.Finish(8)
	if got := c.Snapshot().MatrixBytes[0][1]; got != 700 {
		t.Fatalf("checkpoint mutated by restore: matrix[0][1] = %d", got)
	}
}

// TestRunStateRollsBack is the coverage check on the one rollback definition:
// every field of runState comes back from a checkpoint, and none of them shares
// storage with it — a field added to the struct and not to clone fails here.
// The checkpoint must also survive a restore (a second crash rolls back to it
// again).
func TestRunStateRollsBack(t *testing.T) {
	build := func() *Collector {
		c := sizedCollector()
		c.ObserveForward(0, 1, 0, 0, 700, 7, 1e-3)
		c.ObserveFlowComplete(1, 0.25)
		c.ObserveDrop(0, 2)
		c.Commit(0, 2.5, []int64{3, 5}) // crosses a bucket: the timeline has a point
		return c
	}
	c, ref := build(), build()
	cp := c.Checkpoint()
	for round := 0; round < 2; round++ {
		statetest.Scramble(t, &c.runState)
		if reflect.DeepEqual(c.runState, ref.runState) {
			t.Fatal("scrambling changed nothing")
		}
		c.Restore(cp)
		if !reflect.DeepEqual(c.runState, ref.runState) {
			t.Fatalf("round %d: restore left\n%+v\nwant\n%+v", round, c.runState, ref.runState)
		}
	}
}

func TestHotPathNoAllocs(t *testing.T) {
	c := sizedCollector()
	allocs := testing.AllocsPerRun(200, func() {
		c.ObserveForward(0, 1, 0, 0, 300, 3, 1e-4)
		c.ObserveFlowComplete(1, 0.1)
		c.ObserveDrop(0, 1)
	})
	if allocs > 0 {
		t.Fatalf("hot path allocated %.1f/run, want 0", allocs)
	}
}

func TestRegistryExposition(t *testing.T) {
	c := sizedCollector()
	c.ObserveForward(0, 1, 0, 0, 1000, 2, 0.5e-3)
	c.ObserveFlowComplete(1, 0.25)
	c.Commit(0, 2.5, []int64{8, 4})
	c.Finish(8)

	var b strings.Builder
	if err := c.Metrics().WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE massf_traffic_matrix_bytes_total counter",
		`massf_traffic_matrix_bytes_total{dst="1",src="0"} 1000`,
		"massf_cross_engine_bytes_total 1000",
		"massf_virtual_time_seconds 8",
		"massf_windows_total 1",
		`massf_engine_charges_total{engine="0"} 8`,
		"# TYPE massf_flow_completion_seconds histogram",
		"massf_flow_completion_seconds_count 1",
		`massf_flow_completion_seconds_bucket{le="+Inf"} 1`,
		"massf_queue_delay_seconds_sum 0.0005",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n----\n%s", want, out)
		}
	}

	// Deterministic: a second render is byte-identical.
	var b2 strings.Builder
	if err := c.Metrics().WriteExposition(&b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Error("two renders of the same registry differ")
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "h", Label{"k", `a"b\c` + "\n"}).Set(1)
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	want := `g{k="a\"b\\c\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped label missing %q in %q", want, b.String())
	}
}

func TestRegistryReuseSameHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "h", Label{"x", "1"})
	b := r.Counter("c", "h", Label{"x", "1"})
	a.Add(2)
	b.Add(3)
	if got := a.Get(); got != 5 {
		t.Fatalf("re-registered handle diverged: %g", got)
	}
}

func TestExpositionReportsNaNObservations(t *testing.T) {
	c := sizedCollector()
	c.ObserveFlowComplete(1, math.NaN())
	c.ObserveFlowComplete(1, 0.25)
	c.Commit(0, 2.5, []int64{8, 4})
	c.Finish(8)

	var b strings.Builder
	if err := c.Metrics().WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The NaN is quarantined — surfaced as its own series, excluded from the
	// real count so the mean/quantiles stay honest.
	for _, want := range []string{
		"massf_flow_completion_seconds_nan_count 1",
		"massf_flow_completion_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n----\n%s", want, out)
		}
	}
	if strings.Contains(out, "massf_queue_delay_seconds_nan_count") {
		t.Error("_nan_count emitted for a histogram that never saw NaN")
	}

	// Golden stability: a clean collector must not grow _nan_count lines.
	clean := sizedCollector()
	clean.ObserveFlowComplete(1, 0.25)
	clean.Commit(0, 2.5, []int64{8, 4})
	clean.Finish(8)
	var cb strings.Builder
	if err := clean.Metrics().WriteExposition(&cb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cb.String(), "_nan_count") {
		t.Error("NaN-free run emitted _nan_count series")
	}
}

// TestPartialExportInstallEquivalence is the distributed-telemetry contract:
// two workers with disjoint engines, merged via ExportPartial/InstallPartials
// on a coordinator, must publish the identical snapshot and exposition as one
// collector that saw every observation locally.
func TestPartialExportInstallEquivalence(t *testing.T) {
	observeEngine0 := func(c *Collector) {
		c.ObserveForward(0, 1, 0, 0, 1000, 2, 0.5e-3) // engine 0's matrix row + link 0 tx
		c.ObserveFlowComplete(0, 0.125)
		c.ObserveDrop(0, 1)
	}
	observeEngine1 := func(c *Collector) {
		c.ObserveForward(1, 0, 1, 1, 500, 1, 0.25e-3)
		c.ObserveFlowComplete(1, 0.5)
	}
	charges := []int64{8, 4}

	// Reference: one collector sees everything.
	ref := sizedCollector()
	observeEngine0(ref)
	observeEngine1(ref)
	ref.Commit(0, 2.5, charges)
	ref.Finish(8)

	// Distributed: each worker only its own engines, never committing.
	w0 := sizedCollector()
	observeEngine0(w0)
	w1 := sizedCollector()
	observeEngine1(w1)
	coord := sizedCollector()
	if err := coord.InstallPartials([]*Partial{
		w0.ExportPartial([]int{0}, true),
		w1.ExportPartial([]int{1}, true),
	}); err != nil {
		t.Fatal(err)
	}
	coord.Commit(0, 2.5, charges)
	coord.Finish(8)

	wantSnap, err := json.Marshal(ref.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, err := json.Marshal(coord.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantSnap, gotSnap) {
		t.Fatalf("merged snapshot diverges:\nwant %s\n got %s", wantSnap, gotSnap)
	}

	var wantExp, gotExp strings.Builder
	if err := ref.Metrics().WriteExposition(&wantExp); err != nil {
		t.Fatal(err)
	}
	if err := coord.Metrics().WriteExposition(&gotExp); err != nil {
		t.Fatal(err)
	}
	if wantExp.String() != gotExp.String() {
		t.Fatal("merged exposition diverges from the single-collector run")
	}
}

// TestInstallPartialsRejectsBadShapes: a partial is outside input when it
// arrives over the wire, so every array it carries is measured against the run
// before anything indexes with it — a slow array one slot too long used to
// panic the coordinator in the elementwise sum. A refused partial returns
// ErrBadPartial and installs nothing, its well-formed neighbours included.
func TestInstallPartialsRejectsBadShapes(t *testing.T) {
	good := func() *Partial {
		w := sizedCollector()
		w.ObserveForward(0, 1, 0, 0, 700, 7, 1e-3)
		return w.ExportPartial([]int{0}, true)
	}
	cases := []struct {
		name   string
		mangle func(p *Partial)
	}{
		{"engine out of range", func(p *Partial) { p.Engines[0] = 5 }},
		{"engine negative", func(p *Partial) { p.Engines[0] = -1 }},
		{"short matrix row", func(p *Partial) { p.MatrixBytes = p.MatrixBytes[:1] }},
		{"long matrix packets", func(p *Partial) { p.MatrixPackets = append(p.MatrixPackets, 0) }},
		{"long link tx bytes", func(p *Partial) { p.LinkTxBytes = append(p.LinkTxBytes, 1) }},
		{"long link tx packets", func(p *Partial) { p.LinkTxPackets = append(p.LinkTxPackets, 1) }},
		{"short link tx packets", func(p *Partial) { p.LinkTxPackets = p.LinkTxPackets[:1] }},
		{"missing histograms", func(p *Partial) { p.QueueDelay, p.FCT = nil, nil }},
		{"extra flows-done", func(p *Partial) { p.FlowsDone = append(p.FlowsDone, 1) }},
		{"missing drops", func(p *Partial) { p.Drops = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := sizedCollector()
			bad := good()
			tc.mangle(bad)
			err := c.InstallPartials([]*Partial{good(), bad})
			if !errors.Is(err, ErrBadPartial) {
				t.Fatalf("want ErrBadPartial, got %v", err)
			}
			if !reflect.DeepEqual(c.runState, sizedCollector().runState) {
				t.Fatal("a refused install changed the collector")
			}
		})
	}
	c := sizedCollector()
	if err := c.InstallPartials([]*Partial{nil}); err != nil {
		t.Fatalf("nil partial must be skipped, got %v", err)
	}
}
