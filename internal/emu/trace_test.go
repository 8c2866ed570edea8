package emu

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// TestTraceTimelineCoversRun pins the observation-plane integration: one
// committed timeline window per kernel window, compute spans for exactly the
// active engines, and modeled busy derived from the same cost model as the
// engine loads.
func TestTraceTimelineCoversRun(t *testing.T) {
	tl := obs.NewTimeline()
	cfg := telConfig(false)
	res, err := Run(cfg, WithTrace(tl))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tl.Windows(), res.Kernel.Windows; got != want {
		t.Fatalf("timeline windows %d != kernel windows %d", got, want)
	}
	var busy [2]float64
	for _, s := range tl.Spans() {
		if s.Kind != obs.SpanCompute {
			continue
		}
		if s.End <= s.Start {
			t.Fatalf("degenerate span bounds: %+v", s)
		}
		busy[s.Engine] += s.Busy
	}
	// The default cost model charges PerEvent per kernel event and PerRemote
	// per cross-engine send — the same quantities EngineLoads counts.
	cost := PentiumIICluster
	for lp := range busy {
		want := res.EngineLoads[lp]*cost.PerEvent + float64(res.Kernel.RemoteSends[lp])*cost.PerRemote
		if diff := busy[lp] - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("engine %d traced busy %g, cost model says %g", lp, busy[lp], want)
		}
	}
}

// TestTraceCanonicalDeterministic: identical runs — sequential and parallel
// kernels included — produce byte-identical canonical span projections, the
// same contract as the result path.
func TestTraceCanonicalDeterministic(t *testing.T) {
	render := func(sequential bool) []byte {
		tl := obs.NewTimeline()
		if _, err := Run(telConfig(sequential), WithTrace(tl)); err != nil {
			t.Fatal(err)
		}
		return tl.CanonicalJSON()
	}
	seq := render(true)
	if len(seq) == 0 {
		t.Fatal("empty canonical projection")
	}
	if !bytes.Equal(seq, render(true)) {
		t.Error("canonical spans differ between identical sequential runs")
	}
	if !bytes.Equal(seq, render(false)) {
		t.Error("canonical spans differ between sequential and parallel kernels")
	}
}

// TestTraceStragglerAttribution injects a 10x straggler on engine 1 and
// requires the timeline — the one place attribution is kept — to blame it for
// the majority of the critical path, in its health rows and its summary line,
// with a RunStats collector riding the same commit.
func TestTraceStragglerAttribution(t *testing.T) {
	cfg := telConfig(true)
	cfg.Faults = &faults.Schedule{Stragglers: []faults.Straggler{
		{Engine: 1, From: 0, To: cfg.Workload.Duration, Factor: 10},
	}}
	tl := obs.NewTimeline()
	res, err := Run(cfg, WithTrace(tl), WithStats())
	if err != nil {
		t.Fatal(err)
	}
	var slow *obs.WorkerHealth
	for _, h := range tl.Health() {
		h := h
		if h.Worker == 1 {
			slow = &h
		}
	}
	if slow == nil {
		t.Fatal("straggler engine has no health row")
	}
	if slow.Share < 0.5 {
		t.Errorf("straggler critical-path share %.2f < 0.5", slow.Share)
	}
	st := res.Obs
	if st == nil {
		t.Fatal("WithStats produced no RunStats")
	}
	if slow.GatedWindows == 0 || slow.GatedWindows > st.Windows {
		t.Fatalf("engine 1 gated %d of the %d windows RunStats counted", slow.GatedWindows, st.Windows)
	}
	if s := tl.Summary(); !strings.HasPrefix(s, "straggler: worker 1 gated ") {
		t.Errorf("summary line missing straggler attribution: %q", s)
	}
}

// TestTraceResultUnchanged: attaching a timeline must not perturb the
// simulation — the canonical result quantities are identical with tracing on
// and off.
func TestTraceResultUnchanged(t *testing.T) {
	cfg := telConfig(false)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Run(cfg, WithTrace(obs.NewTimeline()))
	if err != nil {
		t.Fatal(err)
	}
	if base.AppTime != traced.AppTime || base.NetTime != traced.NetTime ||
		base.Imbalance != traced.Imbalance || base.RemoteEvents != traced.RemoteEvents {
		t.Errorf("tracing changed the result: %+v vs %+v", base, traced)
	}
}

// TestTraceDisabledZeroAddedAllocs is the disabled-path cost gate: a run with
// tracing disabled must allocate exactly like a run with no trace option at
// all — the window observer sees one nil check.
func TestTraceDisabledZeroAddedAllocs(t *testing.T) {
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
		if _, err := Run(cfg, WithTrace(nil)); err != nil {
			t.Fatal(err)
		}
	})
	if off > base {
		t.Errorf("disabled tracing allocates more than the bare path: %.1f > %.1f per run", off, base)
	}
}

// BenchmarkEmuTraceOff is the untraced run BenchmarkEmuTraceOn is read
// against.
func BenchmarkEmuTraceOff(b *testing.B) {
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

// BenchmarkEmuTraceOn measures the enabled path as callers run it: a fresh
// timeline per run (cmd/massf, the benchmark and every test make one; only
// the distributed loss fallback reuses one, after Reset), so each iteration
// pays per-window span derivation, the commit, the attribution bookkeeping
// and the store's first chunks.
func BenchmarkEmuTraceOn(b *testing.B) {
	cfg := benchConfig()
	if _, err := Run(cfg, WithTrace(obs.NewTimeline())); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, WithTrace(obs.NewTimeline())); err != nil {
			b.Fatal(err)
		}
	}
}
