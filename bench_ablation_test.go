// Ablation benchmarks for the design choices DESIGN.md calls out: the
// latency/traffic priority ratio p (§2.3/§5), timeline clustering in PROFILE
// (§3.3), and the partitioner's own knobs (multilevel coarsening, restart
// count). Run with:
//
//	go test -bench=Ablation -benchtime 1x
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/netflow"
	"repro/internal/netgraph"
	"repro/internal/partition"
)

// mustRoutes resolves a scenario's route oracle or fails the benchmark.
func mustRoutes(tb testing.TB, sc *core.Scenario) netgraph.Routing {
	tb.Helper()
	r, err := sc.Routes()
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// ablationScenario builds the TeraGrid+ScaLapack study with a completed
// profiling run, the setting where every knob is live.
func ablationScenario(b *testing.B) (*core.Scenario, *netflow.Summary) {
	b.Helper()
	s, err := experiments.ScenarioFor(experiments.Config{Duration: 30, Seed: 42}, "TeraGrid", "ScaLapack")
	if err != nil {
		b.Fatal(err)
	}
	topPart, _, err := s.Partition(context.Background(), mapping.Top)
	if err != nil {
		b.Fatal(err)
	}
	w, err := s.Workload()
	if err != nil {
		b.Fatal(err)
	}
	res, err := emu.Run(emu.Config{
		Network: s.Network, Routes: mustRoutes(b, s), Assignment: topPart,
		NumEngines: s.Engines, Workload: w, Profile: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s, res.NetFlow.Summarize()
}

// BenchmarkAblationLatencyPriority sweeps the multi-objective priority p
// from pure traffic (0.1) to pure latency (0.9) around the paper's 6:4
// default, reporting the realized imbalance and the achieved lookahead.
func BenchmarkAblationLatencyPriority(b *testing.B) {
	sc, sum := ablationScenario(b)
	w, _ := sc.Workload()
	for _, p := range []float64{0.1, 0.3, 0.6, 0.9} {
		b.Run(fmt.Sprintf("p=%.1f", p), func(b *testing.B) {
			var imb, look float64
			for i := 0; i < b.N; i++ {
				part, err := mapping.ProfileMap(mapping.Input{
					Network: sc.Network, Routes: mustRoutes(b, sc), K: sc.Engines,
					PartOpts: partition.Options{Seed: 45}, Summary: sum,
					LatencyPriority: p,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := emu.Run(emu.Config{
					Network: sc.Network, Routes: mustRoutes(b, sc), Assignment: part,
					NumEngines: sc.Engines, Workload: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				imb, look = res.Imbalance, res.Lookahead
			}
			b.ReportMetric(imb, "imbalance")
			b.ReportMetric(look*1e3, "lookahead-ms")
		})
	}
}

// BenchmarkAblationClustering compares PROFILE with and without the §3.3
// timeline clustering (multi-constraint segments vs a single total-load
// constraint), reporting overall and fine-grained imbalance.
func BenchmarkAblationClustering(b *testing.B) {
	sc, sum := ablationScenario(b)
	w, _ := sc.Workload()
	for _, cluster := range []bool{false, true} {
		b.Run(fmt.Sprintf("cluster=%v", cluster), func(b *testing.B) {
			var imb, fine float64
			for i := 0; i < b.N; i++ {
				part, err := mapping.ProfileMap(mapping.Input{
					Network: sc.Network, Routes: mustRoutes(b, sc), K: sc.Engines,
					PartOpts: partition.Options{Seed: 45}, Summary: sum,
					Cluster: cluster,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := emu.Run(emu.Config{
					Network: sc.Network, Routes: mustRoutes(b, sc), Assignment: part,
					NumEngines: sc.Engines, Workload: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				imb = res.Imbalance
				fine = meanPositive(res.EngineSeries.ImbalancePerBucket())
			}
			b.ReportMetric(imb, "imbalance")
			b.ReportMetric(fine, "finegrained-imbalance")
		})
	}
}

// BenchmarkAblationPartitioner isolates the partitioner on the PROFILE
// instance: multilevel vs direct (no coarsening) and restart counts.
func BenchmarkAblationPartitioner(b *testing.B) {
	sc, sum := ablationScenario(b)
	for _, tc := range []struct {
		name string
		opts partition.Options
	}{
		{"default", partition.Options{Seed: 45}},
		{"restarts=1", partition.Options{Seed: 45, Restarts: 1}},
		{"restarts=40", partition.Options{Seed: 45, Restarts: 40}},
		{"no-coarsen", partition.Options{Seed: 45, CoarsenTo: 1 << 20}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var predicted float64
			for i := 0; i < b.N; i++ {
				part, err := mapping.ProfileMap(mapping.Input{
					Network: sc.Network, Routes: mustRoutes(b, sc), K: sc.Engines,
					PartOpts: tc.opts, Summary: sum,
				})
				if err != nil {
					b.Fatal(err)
				}
				loads := make([]float64, sc.Engines)
				for v, e := range part {
					loads[e] += float64(sum.NodePackets[v])
				}
				predicted = metrics.Imbalance(loads)
			}
			b.ReportMetric(predicted, "predicted-imbalance")
		})
	}
}

// BenchmarkAblationTransport compares flow-completion times under the two
// transport models on the same workload: TCP slow start stretches FCTs
// without changing total emulation load.
func BenchmarkAblationTransport(b *testing.B) {
	sc, _ := ablationScenario(b)
	w, _ := sc.Workload()
	part, _, err := sc.Partition(context.Background(), mapping.Top)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []emu.TransportMode{emu.Blast, emu.TCPSlowStart} {
		name := "blast"
		if mode == emu.TCPSlowStart {
			name = "tcp-slow-start"
		}
		b.Run(name, func(b *testing.B) {
			var mean, p95 float64
			var completed int
			for i := 0; i < b.N; i++ {
				res, err := emu.Run(emu.Config{
					Network: sc.Network, Routes: mustRoutes(b, sc), Assignment: part,
					NumEngines: sc.Engines, Workload: w, Transport: mode,
				})
				if err != nil {
					b.Fatal(err)
				}
				completed, mean, p95 = res.FCTStats()
			}
			b.ReportMetric(float64(completed), "flows-completed")
			b.ReportMetric(mean, "fct-mean-s")
			b.ReportMetric(p95, "fct-p95-s")
		})
	}
}
