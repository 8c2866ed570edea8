package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func sizedCollector() *Collector {
	c := New()
	c.Reset(Dims{Engines: 2, Links: 3, BucketWidth: 2})
	return c
}

// line is an emulator stand-in for sizedCollector's run: per-direction
// counters over 3 links whose ends sit on engines 0–1 (link 0), 0–0 (link 1)
// and 1–1 (link 2).
type line struct{ bytes, packets, drops []int64 }

func newLine() *line {
	return &line{bytes: make([]int64, 6), packets: make([]int64, 6), drops: make([]int64, 6)}
}

func (l *line) Counters() (bytes, packets, drops []int64) { return l.bytes, l.packets, l.drops }

func (l *line) SlotEngines(slot int) (src, dst int) {
	ends := [3][2]int{{0, 1}, {0, 0}, {1, 1}}[slot/2]
	return ends[slot%2], ends[1-slot%2]
}

// forward counts a packet group transmitted over link direction slot.
func (l *line) forward(slot int, bytes, packets int64) {
	l.bytes[slot] += bytes
	l.packets[slot] += packets
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.Commit(0, 1, []int64{1, 2}, newLine())
	c.Fold(newLine())
	c.Finish(1, newLine())
	if s := c.Snapshot(); s == nil || s.Engines != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if err := c.CheckPartial(&Partial{Engines: []int{9}}); err != nil {
		t.Fatalf("nil collector checked a partial: %v", err)
	}
}

func TestUnsizedCommitIgnored(t *testing.T) {
	c := New()
	c.Commit(0, 3, []int64{5}, newLine())
	c.Finish(3, newLine())
	if s := c.Snapshot(); s.Windows != 0 {
		t.Fatalf("unsized collector committed windows: %+v", s)
	}
}

func TestMatrixAndSnapshot(t *testing.T) {
	c, l := sizedCollector(), newLine()
	// Engine 0 sends 3 packets / 3000 bytes to engine 1 over link 0 dir 0,
	// and 1 packet / 500 bytes to itself over link 1 dir 1.
	l.forward(0, 3000, 3)
	c.ObserveQueueDelay(0, 0.5e-3)
	l.forward(3, 500, 1)
	c.ObserveQueueDelay(0, 0)
	c.ObserveFlowComplete(1, 0.25)
	l.drops[0] += 2
	c.Commit(0, 1, []int64{10, 30}, l)
	c.Finish(8, l)

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
	if s.FCTP50 <= 0 || s.QueueDelay.Count != 2 {
		t.Fatalf("fct p50 = %g, %d queue delays", s.FCTP50, s.QueueDelay.Count)
	}
	if s.VirtualTime != 8 || s.Windows != 1 {
		t.Fatalf("vt=%g windows=%d", s.VirtualTime, s.Windows)
	}
}

// TestSnapshotIsolatedFromLiveState: a snapshot shares no storage with the
// collector, and the matrix moves only at folds — a measurement-window
// crossing or an explicit Fold — not at every window.
func TestSnapshotIsolatedFromLiveState(t *testing.T) {
	c, l := sizedCollector(), newLine()
	l.forward(0, 100, 1)
	c.Commit(0, 2.5, []int64{1, 1}, l) // crosses 2 s: folds
	s := c.Snapshot()
	l.forward(0, 900, 9)
	c.Commit(2.5, 3, []int64{1, 1}, l) // no crossing
	if s.MatrixBytes[0][1] != 100 {
		t.Fatalf("snapshot aliased live state: %v", s.MatrixBytes)
	}
	if got := c.Snapshot().MatrixBytes[0][1]; got != 100 {
		t.Fatalf("traffic since the last fold leaked: %d", got)
	}
	c.Fold(l)
	if got := c.Snapshot().MatrixBytes[0][1]; got != 1000 {
		t.Fatalf("after a fold the matrix holds %d, want 1000", got)
	}
}

// TestFoldBinsByTheAssignmentInForce: traffic is binned by the engines its
// link direction's ends had when it flowed, so a fold before the assignment
// changes keeps it where it was — the fold every membership change runs
// first.
func TestFoldBinsByTheAssignmentInForce(t *testing.T) {
	c := sizedCollector()
	l := &remapped{line: newLine()}
	l.forward(0, 100, 1) // 0 → 1
	c.Fold(l)
	l.moved = true      // link 0's ends now both sit on engine 1
	l.forward(0, 40, 1) // 1 → 1
	c.Finish(1, l)
	if s := c.Snapshot(); s.MatrixBytes[0][1] != 100 || s.MatrixBytes[1][1] != 40 || s.CrossEngineBytes != 100 {
		t.Fatalf("matrix %v, cross %d: traffic binned by the wrong assignment", s.MatrixBytes, s.CrossEngineBytes)
	}
}

type remapped struct {
	*line
	moved bool
}

func (r *remapped) SlotEngines(slot int) (src, dst int) {
	if r.moved && slot < 2 {
		return 1, 1
	}
	return r.line.SlotEngines(slot)
}

func TestTimelineWindows(t *testing.T) {
	c, l := sizedCollector(), newLine() // BucketWidth 2, Duration 8
	l.forward(0, 1000, 1)
	c.Commit(0, 1, []int64{4, 4}, l)
	c.Commit(1, 2.5, []int64{4, 4}, l) // crosses the 2s boundary
	l.forward(1, 500, 1)
	c.Commit(2.5, 5, []int64{2, 6}, l) // crosses 4s
	c.Finish(8, l)

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

// TestHotPathNoAllocs: the two observations the packet path makes — a queue
// delay per forwarded packet group, an FCT per completed flow — allocate
// nothing.
func TestHotPathNoAllocs(t *testing.T) {
	c := sizedCollector()
	allocs := testing.AllocsPerRun(200, func() {
		c.ObserveQueueDelay(0, 1e-4)
		c.ObserveFlowComplete(1, 0.1)
	})
	if allocs > 0 {
		t.Fatalf("hot path allocated %.1f/run, want 0", allocs)
	}
}

func TestRegistryExposition(t *testing.T) {
	c, l := sizedCollector(), newLine()
	l.forward(0, 1000, 2)
	c.ObserveQueueDelay(0, 0.5e-3)
	c.ObserveFlowComplete(1, 0.25)
	c.Commit(0, 2.5, []int64{8, 4}, l)
	c.Finish(8, l)

	var b strings.Builder
	if err := c.WriteExposition(&b); err != nil {
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
	if err := c.WriteExposition(&b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Error("two renders of the same collector differ")
	}
}

func TestExpositionReportsNaNObservations(t *testing.T) {
	c := sizedCollector()
	c.ObserveFlowComplete(1, math.NaN())
	c.ObserveFlowComplete(1, 0.25)
	c.Commit(0, 2.5, []int64{8, 4}, newLine())
	c.Finish(8, newLine())

	var b strings.Builder
	if err := c.WriteExposition(&b); err != nil {
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
	clean.Commit(0, 2.5, []int64{8, 4}, newLine())
	clean.Finish(8, newLine())
	var cb strings.Builder
	if err := clean.WriteExposition(&cb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cb.String(), "_nan_count") {
		t.Error("NaN-free run emitted _nan_count series")
	}
}

// TestPartialExportInstallEquivalence is the distributed-telemetry contract:
// two workers with disjoint engines, their histograms merged via
// ExportPartial/InstallPartials on a coordinator that folds the same link
// counters, must publish the identical snapshot and exposition as one
// collector that saw every observation locally.
func TestPartialExportInstallEquivalence(t *testing.T) {
	observeEngine0 := func(c *Collector) {
		c.ObserveQueueDelay(0, 0.5e-3)
		c.ObserveFlowComplete(0, 0.125)
	}
	observeEngine1 := func(c *Collector) {
		c.ObserveQueueDelay(1, 0.25e-3)
		c.ObserveFlowComplete(1, 0.5)
	}
	l := newLine()
	l.forward(0, 1000, 2) // engine 0 → 1
	l.forward(1, 500, 1)  // engine 1 → 0
	l.drops[0]++
	charges := []int64{8, 4}

	// Reference: one collector sees everything.
	ref := sizedCollector()
	observeEngine0(ref)
	observeEngine1(ref)
	ref.Commit(0, 2.5, charges, l)
	ref.Finish(8, l)

	// Distributed: each worker only its own engines, never committing.
	w0 := sizedCollector()
	observeEngine0(w0)
	w1 := sizedCollector()
	observeEngine1(w1)
	coord := sizedCollector()
	if err := coord.InstallPartials([]*Partial{
		w0.ExportPartial([]int{0}),
		w1.ExportPartial([]int{1}),
	}); err != nil {
		t.Fatal(err)
	}
	coord.Commit(0, 2.5, charges, l)
	coord.Finish(8, l)

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
	if err := ref.WriteExposition(&wantExp); err != nil {
		t.Fatal(err)
	}
	if err := coord.WriteExposition(&gotExp); err != nil {
		t.Fatal(err)
	}
	if wantExp.String() != gotExp.String() {
		t.Fatal("merged exposition diverges from the single-collector run")
	}
}

// TestInstallPartialsRejectsBadShapes: a partial is outside input when it
// arrives over the wire, so every engine it names and every histogram it
// carries is measured against the run before anything indexes with it. A
// refused partial returns ErrBadPartial and installs nothing, its
// well-formed neighbours included.
func TestInstallPartialsRejectsBadShapes(t *testing.T) {
	good := func() *Partial {
		w := sizedCollector()
		w.ObserveQueueDelay(0, 1e-3)
		return w.ExportPartial([]int{0})
	}
	cases := []struct {
		name   string
		mangle func(p *Partial)
	}{
		{"engine out of range", func(p *Partial) { p.Engines[0] = 5 }},
		{"engine negative", func(p *Partial) { p.Engines[0] = -1 }},
		{"missing histograms", func(p *Partial) { p.QueueDelay, p.FCT = nil, nil }},
		{"missing FCT histogram", func(p *Partial) { p.FCT = nil }},
		{"engine without histograms", func(p *Partial) { p.Engines = append(p.Engines, 1) }},
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

// TestExpositionAgreesWithSnapshot: /metrics and Snapshot render one state,
// so after every step of a run — a crossing commit, a commit inside a
// measurement window, an explicit fold and Finish — each scalar series in
// the exposition equals its Snapshot field.
func TestExpositionAgreesWithSnapshot(t *testing.T) {
	c, l := sizedCollector(), newLine()
	check := func(step string) {
		t.Helper()
		var b strings.Builder
		if err := c.WriteExposition(&b); err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, line := range strings.Split(b.String(), "\n") {
			series, val, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(line, "#") || strings.Contains(series, "_seconds_") {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("%s: series %q: %v", step, series, err)
			}
			got[series] = v
		}
		s := c.Snapshot()
		want := map[string]float64{
			"massf_windows_total":            float64(s.Windows),
			"massf_virtual_time_seconds":     s.VirtualTime,
			"massf_cross_engine_bytes_total": float64(s.CrossEngineBytes),
			"massf_forwarded_bytes_total":    float64(s.TotalBytes),
			"massf_dropped_packets_total":    float64(s.DroppedPackets),
			"massf_flows_completed_total":    float64(s.FlowsCompleted),
			"massf_load_imbalance":           s.Imbalance,
			"massf_link_tx_bytes_total":      float64(sumInts(s.LinkTxBytes)),
			"massf_link_tx_packets_total":    float64(sumInts(s.LinkTxPackets)),
		}
		for e, ch := range s.EngineCharges {
			want[fmt.Sprintf(`massf_engine_charges_total{engine="%d"}`, e)] = float64(ch)
		}
		for src, row := range s.MatrixBytes {
			for dst, v := range row {
				cell := fmt.Sprintf(`{dst="%d",src="%d"}`, dst, src)
				want["massf_traffic_matrix_bytes_total"+cell] = float64(v)
				want["massf_traffic_matrix_packets_total"+cell] = float64(s.MatrixPackets[src][dst])
			}
		}
		for series, w := range want {
			if g, ok := got[series]; !ok || g != w {
				t.Errorf("%s: %s = %g (present %v), Snapshot says %g", step, series, g, ok, w)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: the exposition has %d scalar series, Snapshot %d", step, len(got), len(want))
		}
	}
	check("reset")
	l.forward(0, 1000, 2)
	l.drops[0]++
	c.ObserveFlowComplete(1, 0.25)
	c.Commit(0, 2.5, []int64{8, 4}, l)
	check("crossing commit")
	l.forward(3, 500, 1)
	c.Commit(2.5, 3, []int64{1, 7}, l)
	check("non-crossing commit")
	c.Fold(l)
	check("fold")
	l.forward(0, 200, 1)
	c.ObserveFlowComplete(0, 0.5)
	c.Finish(5, l)
	check("finish")
}

func sumInts(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}
