package emu

import (
	"reflect"
	"testing"

	"repro/internal/traffic"
)

// TestProfileRunSteadyStateAllocs is the emulator half of the NetFlow
// steady-state gate (netflow.TestNetFlowHotPathNoAllocs is the store's): the
// same run is cut at two virtual times, and what profiling adds to its mallocs
// is the same at both — the collector, its slab and its series, all sized at
// prepare time. The later cut adds four seconds of the heavy flows' chunks and
// sixteen flows that start after the earlier cut, so their records are touched
// for the first time; a store that grew on first observation would show as at
// least one malloc per new record. The bare run's own count moves with the cut
// (a flow that starts past EndTime is never seeded), hence the difference. One
// load bucket, so the series the two cuts size are the same.
func TestProfileRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own schedule: an exact allocation count flickers")
	}
	cfg := telConfig(true)
	cfg.BucketWidth = 10
	cfg.Workload = traffic.Workload{Duration: 8}
	for i := 0; i < 20; i++ {
		f := traffic.Flow{ID: i, Src: 0, Dst: 3, Start: 0.2 * float64(i), Bytes: 12 << 20, Tag: "t"}
		if i >= 4 {
			f.Start, f.Bytes = 2.5+0.2*float64(i-4), 6000
		}
		cfg.Workload.Flows = append(cfg.Workload.Flows, f)
	}
	run := func(end float64, profile bool) (mallocs float64, res *Result) {
		cfg := cfg
		cfg.EndTime, cfg.Profile = end, profile
		mallocs = testing.AllocsPerRun(1, func() {
			var err error
			if res, err = Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		return mallocs, res
	}
	var added [2]float64
	var events, records [2]int
	for i, end := range []float64{2, 6} {
		bare, _ := run(end, false)
		with, res := run(end, true)
		added[i] = with - bare
		events[i], records[i] = int(res.Kernel.Events[0]+res.Kernel.Events[1]), len(res.NetFlow.Records())
	}
	if events[1]-events[0] < 1000 || records[1]-records[0] < 16*4 {
		t.Fatalf("the later cut adds %d events and %d records, want at least 1000 and 64", events[1]-events[0], records[1]-records[0])
	}
	if added[0] != added[1] || added[0] > 8 {
		t.Errorf("profiling adds %.0f mallocs to a run of %d events and %.0f to one of %d, want the same handful",
			added[0], events[0], added[1], events[1])
	}
}

// TestProfileSnapshotStaysPristine: a checkpoint's copy of the accounting is
// rolled back to twice (two crashes before the next checkpoint) and is never
// written through — what restore installs is a copy, and the live collector
// observes into its own slab.
func TestProfileSnapshotStaysPristine(t *testing.T) {
	cfg := telConfig(true)
	cfg.Profile = true
	e, err := prepare(&cfg, &runOptions{})
	if err != nil {
		t.Fatal(err)
	}
	observe := func(flows int, at float64) {
		for _, f := range e.flows[:flows] {
			for h := range f.path {
				e.collector.ObserveAt(f.base+h, 4, 6000, at)
			}
		}
	}
	observe(3, 1)
	snap := e.snapshot(nil)
	want := snap.run.collector.Records()
	for round := 0; round < 2; round++ {
		observe(5+round, 2+float64(round)) // touches slots the snapshot has not seen
		if reflect.DeepEqual(e.collector.Records(), want) {
			t.Fatal("observations after the snapshot left no trace")
		}
		e.restore(snap)
		if got := e.collector.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("rollback %d: %d records, the snapshot had %d", round, len(got), len(want))
		}
		if !reflect.DeepEqual(snap.run.collector.Records(), want) ||
			!reflect.DeepEqual(e.collector.Series(), snap.run.collector.Series()) || e.collector.Series() == snap.run.collector.Series() {
			t.Fatalf("rollback %d wrote through to the snapshot", round)
		}
	}
}

// BenchmarkEmuNetFlow runs the same emulation with the §3.3 accounting off and
// on; CI runs both once as a smoke test, and go run ./bench measures the ratio
// (netflow.tax) and the added allocation (netflow.alloc_mb).
func BenchmarkEmuNetFlow(b *testing.B) {
	for _, profile := range []bool{false, true} {
		name := "off"
		if profile {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Profile = profile
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
		})
	}
}
