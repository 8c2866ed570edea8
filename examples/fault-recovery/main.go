// Engine fault injection and recovery remapping, end to end: a Campus-topology
// emulation of GridNPB plus background HTTP loses one of its four simulation
// engines mid-run. The emulator detects the fail-stop at the next window
// barrier, asks the mapping layer to repartition the dead engine's virtual
// nodes across the survivors, moves its pending events there and continues;
// the run since the last checkpoint barrier (every 4 s here) is charged as
// downtime, the work a real cluster would lose. The same crash is then
// recovered naively — every orphaned node dumped onto one survivor — to show
// why partitioner-based remapping is worth the extra migrations.
//
//	go run ./examples/fault-recovery
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	const duration = 20.0

	schedule, err := repro.ParseFaults([]string{
		"crash:1@8",        // engine 1 fail-stops at t=8s
		"slow:0@2-6x2",     // engine 0 runs half-speed over [2,6)
		"degrade@10-14x10", // cluster interconnect degrades after recovery
	})
	if err != nil {
		log.Fatal(err)
	}

	app := repro.DefaultGridNPB()
	app.Duration = duration
	scenario := func() *repro.Scenario {
		return &repro.Scenario{
			Name:       "campus-fault-recovery",
			Network:    repro.Campus(),
			Engines:    4,
			Background: repro.DefaultHTTP(duration, 3),
			App:        app,
			AppSeed:    1,
			PartSeed:   7,
		}
	}

	fmt.Printf("fault schedule: %s\n\n", schedule)
	fmt.Printf("%-22s %12s %10s %10s %10s %12s\n",
		"recovery policy", "downtime(s)", "replayed", "migrated", "post-imb", "app-time(s)")

	var post [2]float64
	for i, naive := range []bool{false, true} {
		sc := scenario()
		sc.Faults, sc.CheckpointEvery, sc.NaiveRecovery = schedule, 4, naive
		out, err := sc.Run(context.Background(), repro.Top)
		if err != nil {
			log.Fatal(err)
		}
		rec := out.Result.Recovery
		name := "remap (partitioner)"
		if naive {
			name = "naive (dump on one)"
		}
		fmt.Printf("%-22s %12.3f %10d %10d %10.3f %12.1f\n",
			name, rec.Downtime, rec.ReplayedEvents, rec.Migrations,
			rec.PostRecoveryImbalance, out.Result.AppTime)
		post[i] = rec.PostRecoveryImbalance

		if i == 0 {
			alive := 0
			for _, ok := range rec.Alive {
				if ok {
					alive++
				}
			}
			fmt.Printf("  engine %d died at t=8; %d survivors; %d barrier checkpoints; "+
				"pre-failure imbalance %.3f\n",
				rec.DeadEngines[0], alive, rec.Checkpoints, rec.PreFailureImbalance)
		}
	}

	fmt.Printf("\nremapping leaves the survivors %.0f%% better balanced than the naive dump\n",
		100*(post[1]-post[0])/post[1])
}
