// Dynamic remapping — the paper's §6 closing challenge: "Static partitions
// are fundamentally limited for large emulation if traffic varies widely...
// Dynamic remapping the virtual network during the emulation is the only
// solution."
//
// This example runs the bursty GridNPB workload on the Campus network twice:
// once under the best static partition (PROFILE) and once with the dynamic
// prototype that re-profiles and repartitions every interval, paying a
// migration stall for every virtual node that changes engines.
//
//	go run ./examples/dynamic-remap
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/mapping"
)

func main() {
	const duration = 60.0

	build := func() *repro.Scenario {
		app := repro.DefaultGridNPB()
		app.Duration = duration
		return &repro.Scenario{
			Name:       "dynamic-remap",
			Network:    repro.Campus(),
			Engines:    3,
			Background: repro.DefaultHTTP(duration, 2),
			App:        app,
			AppSeed:    4,
			PartSeed:   11,
		}
	}

	static, err := build().Run(context.Background(), mapping.Profile)
	if err != nil {
		log.Fatal(err)
	}
	staticFine := meanPositive(static.Result.EngineSeries.ImbalancePerBucket())
	fmt.Printf("static PROFILE:   overall imbalance %.3f, mean 2s imbalance %.3f, app-time %.1fs\n",
		static.Result.Imbalance, staticFine, static.Result.AppTime)

	for _, interval := range []float64{20, 10, 5} {
		sc := build()
		sc.RemapEvery, sc.MigrationCost = interval, 0.05
		dyn, err := sc.Run(context.Background(), mapping.Top)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dynamic @%4.0fs:    overall imbalance %.3f, mean segment imbalance %.3f, "+
			"app-time %.1fs, %d node migrations\n",
			interval, dyn.Result.Imbalance, dyn.MeanSegmentImbalance, dyn.Result.AppTime, dyn.Migrations)
	}

	// Diffusion shifts nodes from the most- to the least-loaded engine
	// between intervals instead of repartitioning — far fewer migrations.
	diff := build()
	diff.Remap, diff.RemapEvery, diff.MigrationCost = core.RemapDiffusion, 10, 0.05
	dyn, err := diff.Run(context.Background(), mapping.Top)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diffusion @10s:   overall imbalance %.3f, mean segment imbalance %.3f, "+
		"app-time %.1fs, %d node migrations\n",
		dyn.Result.Imbalance, dyn.MeanSegmentImbalance, dyn.Result.AppTime, dyn.Migrations)
	fmt.Println("\nShorter intervals track load shifts more closely but pay more migration stalls —")
	fmt.Println("the tension the paper predicts makes dynamic remapping 'a major challenge'.")
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
