package mapping_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/partition"
	"repro/internal/topogen"
)

// contractHosts merges every degree-1 host of g into its one neighbor (a host
// whose neighbor is itself such a host stays). It returns the contracted
// graph, objs carried over to it, and the contracted vertex each vertex of g
// went to.
func contractHosts(g *partition.Graph, objs []partition.EdgeWeightSet, hosts []int) (*partition.Graph, []partition.EdgeWeightSet, []int) {
	n := g.NumVertices()
	leaf := make([]bool, n)
	for _, h := range hosts {
		leaf[h] = len(g.Adj[h]) == 1
	}
	into := make([]int, n) // the vertex of g each vertex is merged into
	for v := range into {
		into[v] = v
		if leaf[v] && !leaf[g.Adj[v][0].To] {
			into[v] = g.Adj[v][0].To
		}
	}
	of, kept := make([]int, n), 0
	for v := range of {
		if into[v] == v {
			of[v] = kept
			kept++
		}
	}
	for v := range of {
		of[v] = of[into[v]]
	}

	cg := partition.NewGraph(kept, g.Ncon)
	for _, row := range cg.VWgt {
		clear(row)
	}
	for v, w := range g.VWgt {
		for c, x := range w {
			cg.VWgt[of[v]][c] += x
		}
	}
	for u, adj := range g.Adj {
		for _, e := range adj {
			if u < e.To && of[u] != of[e.To] {
				cg.AddEdge(of[u], of[e.To], 0)
			}
		}
	}
	cobjs := make([]partition.EdgeWeightSet, len(objs))
	for i, obj := range objs {
		cobjs[i] = partition.NewEdgeWeightSet(cg)
		for u, adj := range g.Adj {
			for j, e := range adj {
				if u < e.To && of[u] != of[e.To] {
					cobjs[i].AddSymmetric(cg, of[u], of[e.To], obj[u][j])
				}
			}
		}
	}
	return cg, cobjs, of
}

// TestHostContractionEstimates is ROADMAP item 3(a), measured test-side. Each
// bench scenario (seed 42, the bench's partition seed and lengths) is mapped
// as its approach maps it, and again with every degree-1 host contracted into
// its router before partitioning and the assignment expanded after; both are
// emulated. It logs the lookahead L, windows, remote events, compute
// imbalance and modeled app and net time of each. EXPERIMENTS.md records the
// table.
func TestHostContractionEstimates(t *testing.T) {
	if testing.Short() {
		t.Skip("maps and emulates bench-length runs")
	}
	for _, c := range []struct {
		topology string
		duration float64
		approach mapping.Approach
	}{
		{"TeraGrid", 600, mapping.Top},
		{"Campus", 30, mapping.Top},
		{"Brite", 120, mapping.Top},
		{"Brite", 120, mapping.Profile},
	} {
		sc, err := experiments.ScenarioFor(experiments.Config{Duration: c.duration, Seed: 42}, c.topology, "ScaLapack")
		if err != nil {
			t.Fatal(err)
		}
		sc.CollectStats, sc.CollectTelemetry, sc.PartSeed = false, false, 45
		if sc.Network, err = topogen.ByName(c.topology, 42); err != nil {
			t.Fatal(err)
		}
		in, err := sc.MappingInput()
		if err != nil {
			t.Fatal(err)
		}
		part, prof, err := sc.Partition(context.Background(), c.approach)
		if err != nil {
			t.Fatal(err)
		}
		if prof != nil {
			in.Summary = prof.NetFlow.Summarize()
		}

		g, objs, coef, opts, err := mapping.Instance(c.approach, in)
		if err != nil {
			t.Fatal(err)
		}
		again, err := mapping.BestOfTrials(g, objs, coef, in.K, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again, part) {
			t.Fatalf("%s %s: the instance seam does not reproduce the approach", c.topology, c.approach)
		}
		cg, cobjs, of := contractHosts(g, objs, sc.Network.Hosts())
		cpart, err := mapping.BestOfTrials(cg, cobjs, coef, in.K, opts)
		if err != nil {
			t.Fatal(err)
		}
		contracted := make([]int, len(of))
		for v, cv := range of {
			contracted[v] = cpart[cv]
		}

		w, err := sc.Workload()
		if err != nil {
			t.Fatal(err)
		}
		routes, err := sc.Routes()
		if err != nil {
			t.Fatal(err)
		}
		var res [2]*emu.Result
		for i, assignment := range [][]int{part, contracted} {
			if res[i], err = emu.Run(emu.Config{Network: sc.Network, Routes: routes, Assignment: assignment,
				NumEngines: sc.Engines, Workload: w}); err != nil {
				t.Fatal(err)
			}
		}
		a, b := res[0], res[1]
		pct := func(x, y float64) float64 { return 100 * (y - x) / x }
		t.Logf("%-8s %-7s %3d → %3d vertices: L %.3g → %.3g ms, windows %d → %d (%+.1f %%), remote events %d → %d, "+
			"imbalance %.3f → %.3f, modeled app %.2f → %.2f s (%+.1f %%), net %.2f → %.2f s (%+.1f %%)",
			c.topology, c.approach, g.NumVertices(), cg.NumVertices(), a.Lookahead*1e3, b.Lookahead*1e3,
			a.Kernel.Windows, b.Kernel.Windows, pct(float64(a.Kernel.Windows), float64(b.Kernel.Windows)),
			a.RemoteEvents, b.RemoteEvents, a.Imbalance, b.Imbalance,
			a.AppTime, b.AppTime, pct(a.AppTime, b.AppTime), a.NetTime, b.NetTime, pct(a.NetTime, b.NetTime))
	}
}
