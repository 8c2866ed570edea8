// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4). Each benchmark runs the corresponding experiment at a reduced
// duration (30 virtual seconds) and reports the headline quantities as
// custom metrics, so `go test -bench=.` doubles as a quick shape check:
//
//	imbalance/TOP, imbalance/PLACE, imbalance/PROFILE   (Figures 4, 5, Table 2)
//	apptime/...                                         (Figures 6, 7, Table 2)
//	nettime/...                                         (Figures 9, 10)
//
// The full-scale numbers belong to cmd/experiments; benchmarks exist to
// measure the real parallel wall-clock cost of the emulator and partitioner.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/topogen"
)

// benchCfg is the reduced configuration all benchmarks share.
func benchCfg() experiments.Config {
	return experiments.Config{Duration: 30, Seed: 42}
}

// reportSuite attaches a suite's per-approach metrics for one topology.
func reportSuite(b *testing.B, s *experiments.Suite, topo string) {
	b.Helper()
	for _, a := range mapping.Approaches() {
		c, ok := s.Get(topo, a)
		if !ok {
			b.Fatalf("missing cell %s/%s", topo, a)
		}
		b.ReportMetric(c.Imbalance, "imbalance/"+string(a))
		b.ReportMetric(c.AppTime, "apptime/"+string(a))
		b.ReportMetric(c.NetTime, "nettime/"+string(a))
	}
}

// BenchmarkTable1Topologies measures topology generation and route-oracle
// construction (rows are computed on first use) for the three Table 1
// networks.
func BenchmarkTable1Topologies(b *testing.B) {
	for _, spec := range topogen.Table1() {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nw, err := topogen.ByName(spec.Name, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				nw.SharedRouting()
			}
		})
	}
}

// BenchmarkFig2LoadVariation runs the profiling emulation behind Figure 2
// and reports how many distinct dominating-engine phases the run exhibits.
func BenchmarkFig2LoadVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		dom := s.DominatingNode()
		changes := 0
		for j := 1; j < len(dom); j++ {
			if dom[j] != dom[j-1] {
				changes++
			}
		}
		b.ReportMetric(float64(changes), "phase-changes")
	}
}

// suiteBench runs a full application suite and reports one topology's grid.
func suiteBench(b *testing.B, app, topo string) {
	b.Helper()
	var last *experiments.Suite
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunSuite(app, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	reportSuite(b, last, topo)
}

// BenchmarkFig4ImbalanceScaLapack regenerates Figure 4 (and, sharing the
// same runs, Figures 6 and 9); the reported metrics are the Brite column,
// where the paper's effect is largest.
func BenchmarkFig4ImbalanceScaLapack(b *testing.B) { suiteBench(b, "ScaLapack", "Brite") }

// BenchmarkFig5ImbalanceGridNPB regenerates Figure 5 (and 7 and 10).
func BenchmarkFig5ImbalanceGridNPB(b *testing.B) { suiteBench(b, "GridNPB", "Brite") }

// BenchmarkFig6EmuTimeScaLapack isolates the Campus column of Figure 6.
func BenchmarkFig6EmuTimeScaLapack(b *testing.B) { suiteBench(b, "ScaLapack", "Campus") }

// BenchmarkFig7EmuTimeGridNPB isolates the Campus column of Figure 7.
func BenchmarkFig7EmuTimeGridNPB(b *testing.B) { suiteBench(b, "GridNPB", "Campus") }

// BenchmarkFig8FineGrained regenerates the fine-grained imbalance
// comparison and reports the mean per-interval imbalance of both curves.
// It runs at 60 virtual seconds (not the shared 30) because the 2-second
// interval comparison needs enough buckets to be representative.
func BenchmarkFig8FineGrained(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Duration = 60
		s, err := experiments.RunSuite("GridNPB", cfg)
		if err != nil {
			b.Fatal(err)
		}
		f, err := experiments.Fig8(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanPositive(f.Top), "finegrained/TOP")
		b.ReportMetric(meanPositive(f.Profile), "finegrained/PROFILE")
	}
}

// BenchmarkFig9ReplayScaLapack reports the TeraGrid replay column of Fig 9.
func BenchmarkFig9ReplayScaLapack(b *testing.B) { suiteBench(b, "ScaLapack", "TeraGrid") }

// BenchmarkFig10ReplayGridNPB reports the TeraGrid replay column of Fig 10.
func BenchmarkFig10ReplayGridNPB(b *testing.B) { suiteBench(b, "GridNPB", "TeraGrid") }

// BenchmarkTable2Scalability regenerates the §4.2.3 large-network study:
// 200 routers, 364 hosts, 20 engines.
func BenchmarkTable2Scalability(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Imbalance, "imbalance/"+string(r.Approach))
		b.ReportMetric(r.AppTime, "apptime/"+string(r.Approach))
	}
}

func meanPositive(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Example demonstrates the facade's quick-start path (compiled as a test).
func Example() {
	sc := &Scenario{
		Network:    Campus(),
		Engines:    3,
		Background: DefaultHTTP(5, 1),
	}
	out, err := sc.Run(context.Background(), Top)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(out.Approach, out.Result.Imbalance >= 0)
	// Output: TOP true
}

// BenchmarkSuiteParallel measures the suite-level fan-out: one full
// ScaLapack suite (3 topologies × 3 approaches) run with concurrent cells
// versus the serial reference. On a multi-core host the parallel variant's
// wall clock approaches the slowest single cell; on one core the two match.
func BenchmarkSuiteParallel(b *testing.B) {
	for _, mode := range []struct {
		name   string
		serial bool
	}{{"parallel", false}, {"serial", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg()
				cfg.SerialSuite = mode.serial
				if _, err := experiments.RunSuite("ScaLapack", cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
