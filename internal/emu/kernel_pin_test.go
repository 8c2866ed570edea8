package emu_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/netgraph"
	"repro/internal/traffic"
)

// denseConfig is the dense-window stress case: an 8-router chain with 200 µs
// links, cut in the middle, so the lookahead is 200 µs and a 4-virtual-second
// run executes over a thousand windows. Staggered small flows keep every
// window non-empty, so the per-window barrier dominates.
func denseConfig() emu.Config {
	nw := netgraph.New("dense")
	ids := []int{nw.AddHost("h0", 1)}
	for i := 0; i < 8; i++ {
		ids = append(ids, nw.AddRouter(fmt.Sprintf("r%d", i), 1))
	}
	ids = append(ids, nw.AddHost("h1", 1))
	for i := 0; i+1 < len(ids); i++ {
		nw.AddLink(ids[i], ids[i+1], 1e9, 200e-6)
	}
	w := traffic.Workload{Duration: 4}
	for i := 0; i < 64; i++ {
		src, dst := ids[0], ids[len(ids)-1]
		if i%2 == 1 {
			src, dst = dst, src
		}
		w.Flows = append(w.Flows, traffic.Flow{ID: i, Src: src, Dst: dst, Start: 0.05 * float64(i), Bytes: 96 << 10, Tag: "dense"})
	}
	assignment := make([]int, len(ids))
	for i := range assignment {
		if i > len(ids)/2 {
			assignment[i] = 1
		}
	}
	return emu.Config{Network: nw, Assignment: assignment, NumEngines: 2, Workload: w, ChunkBytes: 16 << 10}
}

// topConfig is the evaluation's emulation of one paper topology with all
// precomputation resolved: ScaLapack over the HTTP background at seed 42,
// memoized routes, TOP partition.
func topConfig(tb testing.TB, topology string, duration float64, sequential bool) emu.Config {
	tb.Helper()
	sc, err := experiments.ScenarioFor(experiments.Config{Duration: duration, Seed: 42, Sequential: sequential}, topology, "ScaLapack")
	if err != nil {
		tb.Fatal(err)
	}
	part, _, err := sc.Partition(context.Background(), mapping.Top)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := sc.Workload()
	if err != nil {
		tb.Fatal(err)
	}
	routes, err := sc.Routes()
	if err != nil {
		tb.Fatal(err)
	}
	return emu.Config{Network: sc.Network, Routes: routes, Assignment: part,
		NumEngines: sc.Engines, Workload: w, Sequential: sequential}
}

// TestKernelRunInvariants pins the two exact run invariants — executed
// windows and handled events — of a full emulation on the paper topologies
// (30 s) and on the dense stress case, on both sides of the kernel's dispatch
// choice. They are the deterministic half of the retired BENCH_kernel.json; a
// queue or barrier change that moves either changed what the emulation does.
func TestKernelRunInvariants(t *testing.T) {
	for _, c := range []struct {
		topology        string // "": the dense stress case
		windows, events int64
	}{
		{"Campus", 44755, 71285},
		{"TeraGrid", 18798, 84329},
		{"Brite-large", 40057, 88510},
		{"", 1217, 3520},
	} {
		cfg := denseConfig()
		if c.topology != "" {
			cfg = topConfig(t, c.topology, 30, true)
		}
		for _, sequential := range []bool{true, false} {
			cfg.Sequential = sequential
			res, err := emu.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var events int64
			for _, e := range res.Kernel.Events {
				events += e
			}
			if res.Kernel.Windows != c.windows || events != c.events {
				t.Errorf("%q sequential=%v: %d windows, %d events, want %d and %d",
					c.topology, sequential, res.Kernel.Windows, events, c.windows, c.events)
			}
		}
	}
}

// TestRunAllocBytes is the bytes gate behind the bench's alloc_mb_per_op: one
// warmed emu.Run of the TeraGrid 30 s pin above allocates 314 088 bytes for its
// 1 276 flows on Go 1.24 — 246 per flow, bound 10 % above — where the flow
// table's 80 B per-flow copy of the workload took 371 896 (291 per flow, at
// 92111c9), the two-tier sorted-run-and-heap queue 401 856 (315 per flow, at
// 9edccfb) and the any-typed kernel, its chunk slab and its append-grown start
// queues 685 776 (537 per flow, at 6d782c8). The byte count is exact run to
// run; the slack is for a Go release that moves a size class.
func TestRunAllocBytes(t *testing.T) {
	if emu.RaceEnabled {
		t.Skip("allocation sizes are the race detector's under -race")
	}
	cfg := topConfig(t, "TeraGrid", 30, true)
	if _, err := emu.Run(cfg); err != nil { // warm what the network caches lazily
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := emu.Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const bound = 271 // bytes per flow
	if perFlow := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(cfg.Workload.Flows)); perFlow > bound {
		t.Errorf("emu.Run allocated %d bytes for %d flows, %.1f per flow, want at most %d",
			after.TotalAlloc-before.TotalAlloc, len(cfg.Workload.Flows), perFlow, bound)
	}
}
