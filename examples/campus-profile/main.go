// The PROFILE pipeline, step by step: run an initial emulation under a TOP
// partition with NetFlow profiling on every router, aggregate the profile into
// per-link and per-node packet counts, cluster the emulation timeline into
// load segments, repartition with multi-constraint multi-objective
// partitioning, and compare the fine-grained imbalance before and after —
// the machinery of §3.3 and Figure 8.
//
//	go run ./examples/campus-profile
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/emu"
	"repro/internal/mapping"
	"repro/internal/partition"
)

func main() {
	const duration = 60.0
	const engines = 3

	network := repro.Campus()
	routes := network.SharedRouting()

	app := repro.DefaultGridNPB()
	app.Duration = duration
	workloadApp, err := app.Generate(repro.SpreadHosts(network, app.Hosts()), 1)
	if err != nil {
		log.Fatal(err)
	}
	background := repro.DefaultHTTP(duration, 2).Generate(network)
	workload := mergeWorkloads(workloadApp, background)

	// Step 1: initial partition from topology alone (TOP).
	topPart, err := mapping.TopMap(mapping.Input{
		Network: network, Routes: routes, K: engines,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Step 2: profiling run — NetFlow accounting on every emulated router.
	profiled, err := emu.Run(emu.Config{
		Network: network, Routes: routes,
		Assignment: topPart, NumEngines: engines,
		Workload: workload, Profile: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiling run: imbalance=%.3f\n", profiled.Imbalance)

	// Step 3: aggregate the profile — packets per link and per router, and
	// each router's load per 2 s bucket: what PROFILE reads of the paper's
	// per-router dump files.
	summary := profiled.NetFlow.Summarize()
	carried := 0
	for _, p := range summary.LinkPackets {
		if p != 0 {
			carried++
		}
	}
	fmt.Printf("profile: %d links carried traffic; busiest links: %v\n",
		carried, summary.TopLinks(3))

	// Step 4: cluster the timeline at dominating-node changes (§3.3).
	segments := mapping.SegmentTimeline(summary.NodeSeries, 4)
	fmt.Printf("timeline clustered into %d segment(s): %v\n", len(segments), segments)

	// Step 5: repartition with the profile data as balance constraints.
	profPart, err := mapping.ProfileMap(mapping.Input{
		Network: network, Routes: routes, K: engines,
		PartOpts: partition.Options{Seed: 9},
		Summary:  summary, Cluster: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Step 6: re-emulate and compare, including the 2-second fine-grained
	// imbalance of Figure 8.
	final, err := emu.Run(emu.Config{
		Network: network, Routes: routes,
		Assignment: profPart, NumEngines: engines,
		Workload: workload,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-10s %10s %12s %10s\n", "partition", "imbalance", "app-time(s)", "mean-2s-imb")
	fmt.Printf("%-10s %10.3f %12.1f %10.3f\n", "TOP", profiled.Imbalance, profiled.AppTime,
		meanPositive(profiled.EngineSeries.ImbalancePerBucket()))
	fmt.Printf("%-10s %10.3f %12.1f %10.3f\n", "PROFILE", final.Imbalance, final.AppTime,
		meanPositive(final.EngineSeries.ImbalancePerBucket()))
}

func mergeWorkloads(ws ...repro.Workload) repro.Workload {
	merged := ws[0]
	for _, w := range ws[1:] {
		for _, f := range w.Flows {
			f.ID = len(merged.Flows)
			merged.Flows = append(merged.Flows, f)
		}
		if w.Duration > merged.Duration {
			merged.Duration = w.Duration
		}
	}
	merged.SortByStart()
	for i := range merged.Flows {
		merged.Flows[i].ID = i
	}
	return merged
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
