package emu

import (
	"testing"

	"repro/internal/traffic"
)

// TestProfileRunSteadyStateAllocs is the emulator half of the NetFlow
// steady-state gate (netflow.TestNetFlowHotPathNoAllocs is the collector's):
// the same run is cut at two virtual times, and what profiling adds to its
// mallocs is the same at both — the collector, its link-direction counters and
// its series, all sized at prepare time. The later cut adds four seconds of
// the heavy flows' chunks and sixteen flows that start and complete after the
// earlier cut; a collector that grew per flow or per hop on first observation
// would show as at least one malloc per new flow. The bare run's own count
// moves with the cut (a flow that starts past EndTime is never seeded), hence
// the difference. One load bucket, so the series the two cuts size are the
// same.
func TestProfileRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own schedule: an exact allocation count flickers")
	}
	cfg := telConfig()
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
	var events, completed [2]int
	for i, end := range []float64{2, 6} {
		bare, _ := run(end, false)
		with, res := run(end, true)
		added[i] = with - bare
		events[i] = int(res.Kernel.Events[0] + res.Kernel.Events[1])
		completed[i], _, _ = res.FCTStats()
	}
	if events[1]-events[0] < 1000 || completed[1]-completed[0] < 16 {
		t.Fatalf("the later cut adds %d events and completes %d more flows, want at least 1000 and 16", events[1]-events[0], completed[1]-completed[0])
	}
	if added[0] != added[1] || added[0] > 8 {
		t.Errorf("profiling adds %.0f mallocs to a run of %d events and %.0f to one of %d, want the same handful",
			added[0], events[0], added[1], events[1])
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
