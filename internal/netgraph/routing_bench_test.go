package netgraph_test

// Benchmarks for the parallel precomputation pipeline's hot layer: all-pairs
// routing-table construction on the paper's topologies. Each benchmark
// reports serial (workers=1, the seed's execution shape) against parallel
// (workers=GOMAXPROCS) so the speedup and the allocs/op reduction are
// measured in one run: go test -bench BenchmarkRoutingTable ./internal/netgraph.
//
// BenchmarkRoutingTableBrite runs the Table 2 configuration (200 routers /
// 364 hosts) — the scalability case whose precompute cost §4.2.3 is about.

import (
	"reflect"
	"testing"

	"repro/internal/netgraph"
	"repro/internal/topogen"
)

func paperTopology(tb testing.TB, name string) *netgraph.Network {
	tb.Helper()
	nw, err := topogen.ByName(name, 42)
	if err != nil {
		tb.Fatal(err)
	}
	return nw
}

// TestParallelRoutingMatchesSequentialOnPaperTopologies is the satellite
// regression: flat and hierarchical tables built with the parallel fan-out
// are byte-identical to the sequential build on every experiment topology.
func TestParallelRoutingMatchesSequentialOnPaperTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("all-pairs builds on the full topologies")
	}
	for _, name := range []string{"Campus", "TeraGrid", "Brite", "Brite-large"} {
		t.Run(name, func(t *testing.T) {
			nw := paperTopology(t, name)
			seqFlat := nw.BuildRoutingTableParallel(1)
			seqHier := nw.BuildHierarchicalRoutingParallel(1)
			for _, workers := range []int{2, 4, 8} {
				if par := nw.BuildRoutingTableParallel(workers); !reflect.DeepEqual(seqFlat, par) {
					t.Fatalf("%s: flat table with %d workers differs from sequential", name, workers)
				}
				if par := nw.BuildHierarchicalRoutingParallel(workers); !reflect.DeepEqual(seqHier, par) {
					t.Fatalf("%s: hierarchical table with %d workers differs from sequential", name, workers)
				}
			}
		})
	}
}

func benchRoutingTable(b *testing.B, topology string) {
	nw := paperTopology(b, topology)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = nw.BuildRoutingTableParallel(1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = nw.BuildRoutingTableParallel(0)
		}
	})
}

func BenchmarkRoutingTableCampus(b *testing.B)   { benchRoutingTable(b, "Campus") }
func BenchmarkRoutingTableTeraGrid(b *testing.B) { benchRoutingTable(b, "TeraGrid") }

// BenchmarkRoutingTableBrite measures the Table 2 Brite network
// (200 routers / 364 hosts) — the acceptance case: parallel must be >= 2x
// serial at GOMAXPROCS >= 4.
func BenchmarkRoutingTableBrite(b *testing.B) { benchRoutingTable(b, "Brite-large") }

// BenchmarkHierarchicalRoutingBrite covers the two-level build's per-AS
// fan-out on the same large network.
func BenchmarkHierarchicalRoutingBrite(b *testing.B) {
	nw := paperTopology(b, "Brite-large")
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = nw.BuildHierarchicalRoutingParallel(1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = nw.BuildHierarchicalRoutingParallel(0)
		}
	})
}
