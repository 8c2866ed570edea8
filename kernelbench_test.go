// Kernel hot-path benchmark suite and its drift gate (BENCH_kernel.json).
//
// The benchmarks time complete emulation runs — prepare + kernel + result
// assembly — on the paper topologies under a fixed TOP partition, plus a
// dense-window stress case (a low-latency chain whose lookahead forces
// thousands of barriers), with all precomputation (topology, workload,
// partition, routing) hoisted outside the timed loop. They are the regression
// harness for the batched kernel hot path: per-window pooled outbox batches,
// the structure-of-arrays event heap, and flat-counter telemetry.
//
// BENCH_kernel.json records the current code's measurements. The drift gate
// TestKernelBaseline re-measures the deterministic quantities — windows,
// events, allocs/op on the sequential cases — and fails on drift; the timing
// columns are informational (`go run ./bench` is where speed is compared).
// The per-event path's numbers from before the batching overhaul, which this
// file used to carry as a frozen "pre" set, are history and live in
// CHANGES.md.
//
// Regenerate after an intentional hot-path change with:
//
//	KERNELBENCH_WRITE=1 go test -run TestKernelBaseline -timeout 20m
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/netgraph"
	"repro/internal/traffic"
)

const kernelbenchFile = "BENCH_kernel.json"

type kernelbenchEntry struct {
	Name string `json:"name"`
	// Windows and Events are exact run invariants (deterministic for every
	// kernel mode — the byte-identical contract).
	Windows int64 `json:"windows"`
	Events  int64 `json:"events"`
	// NsPerOp is informational (machine-dependent); AllocsPerOp is gated
	// exactly on sequential cases (parallel runs schedule goroutines, so
	// their allocation counts carry scheduler noise and are not gated).
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	Sequential  bool  `json:"sequential"`
}

type kernelbenchBaseline struct {
	Suite       string             `json:"suite"`
	Description string             `json:"description"`
	Date        string             `json:"date"`
	CPU         string             `json:"cpu"`
	Benchtime   string             `json:"benchtime"`
	Baseline    []kernelbenchEntry `json:"baseline"`
}

// kernelCase is one benchmark scenario. Paper topologies run the ScaLapack
// suite workload under a TOP partition; Dense is the synthetic stress case.
type kernelCase struct {
	name       string
	topology   string // "" for the dense stress case
	sequential bool
}

func kernelCases() []kernelCase {
	return []kernelCase{
		{"Campus-seq", "Campus", true},
		{"Campus-par", "Campus", false},
		{"TeraGrid-seq", "TeraGrid", true},
		{"TeraGrid-par", "TeraGrid", false},
		{"Brite-large-seq", "Brite-large", true},
		{"Brite-large-par", "Brite-large", false},
		{"Dense-seq", "", true},
		{"Dense-par", "", false},
	}
}

// kernelTopoConfig assembles the fully-precomputed emulation config for one
// paper topology: generated network, merged ScaLapack+HTTP workload, TOP
// partition and memoized routing all resolved before the timer starts.
func kernelTopoConfig(tb testing.TB, topology string, sequential bool) emu.Config {
	tb.Helper()
	sc, err := experiments.ScenarioFor(experiments.Config{Duration: 30, Seed: 42}, topology, "ScaLapack")
	if err != nil {
		tb.Fatal(err)
	}
	sc.Sequential = sequential
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
	return emu.Config{
		Network:    sc.Network,
		Routes:     routes,
		Assignment: part,
		NumEngines: sc.Engines,
		Workload:   w,
		Sequential: sequential,
	}
}

// kernelDenseConfig is the dense-window stress case: an 8-router chain with
// 200 µs links, cut in the middle, so the lookahead is 200 µs and a 4-virtual-
// second run executes thousands of windows. Staggered small flows keep every
// window non-empty — the per-window barrier cost (outbox merge, observer,
// telemetry commit) dominates, which is exactly what the batching overhaul
// targets.
func kernelDenseConfig(tb testing.TB, sequential bool) emu.Config {
	tb.Helper()
	nw := netgraph.New("dense")
	const routers = 8
	ids := make([]int, 0, routers+2)
	ids = append(ids, nw.AddHost("h0", 1))
	for i := 0; i < routers; i++ {
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
		w.Flows = append(w.Flows, traffic.Flow{
			ID: i, Src: src, Dst: dst,
			Start: 0.05 * float64(i), Bytes: 96 << 10, Tag: "dense",
		})
	}
	assignment := make([]int, len(ids))
	for i := range assignment {
		if i > len(ids)/2 {
			assignment[i] = 1
		}
	}
	return emu.Config{
		Network:    nw,
		Assignment: assignment,
		NumEngines: 2,
		Workload:   w,
		ChunkBytes: 16 << 10,
		Sequential: sequential,
	}
}

func kernelConfigFor(tb testing.TB, c kernelCase) emu.Config {
	if c.topology == "" {
		return kernelDenseConfig(tb, c.sequential)
	}
	return kernelTopoConfig(tb, c.topology, c.sequential)
}

// BenchmarkKernel times one full emulation per iteration for every case; the
// committed BENCH_kernel.json numbers come from -benchtime 20x runs of this
// benchmark (via TestKernelBaseline's writer).
func BenchmarkKernel(b *testing.B) {
	for _, c := range kernelCases() {
		b.Run(c.name, func(b *testing.B) {
			cfg := kernelConfigFor(b, c)
			if _, err := emu.Run(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := emu.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// kernelbenchMeasure runs one case under the testing.Benchmark harness and
// extracts the entry: run invariants from a direct run, cost numbers from the
// best of three benchmark results (a loaded host inflates individual rounds;
// the minimum is the closest observable to the true cost).
func kernelbenchMeasure(tb testing.TB, c kernelCase) kernelbenchEntry {
	tb.Helper()
	cfg := kernelConfigFor(tb, c)
	res, err := emu.Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var events int64
	for _, e := range res.Kernel.Events {
		events += e
	}
	entry := kernelbenchEntry{
		Name:       c.name,
		Windows:    res.Kernel.Windows,
		Events:     events,
		Sequential: c.sequential,
	}
	for round := 0; round < 3; round++ {
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := emu.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		if entry.NsPerOp == 0 || br.NsPerOp() < entry.NsPerOp {
			entry.NsPerOp = br.NsPerOp()
			entry.BytesPerOp = br.AllocedBytesPerOp()
			entry.AllocsPerOp = br.AllocsPerOp()
		}
	}
	return entry
}

func kernelbenchByName(es []kernelbenchEntry) map[string]kernelbenchEntry {
	m := make(map[string]kernelbenchEntry, len(es))
	for _, e := range es {
		m[e.Name] = e
	}
	return m
}

// TestKernelBaseline is the kernel-bench drift gate. It re-measures every
// case and checks the deterministic quantities exactly (windows, events; and
// allocs/op on the sequential cases, which have no scheduler noise), and
// allows the committed timing numbers to differ (machines differ). Every gate
// compares a live measurement with a committed one.
func TestKernelBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full emulation benchmarks")
	}
	write := os.Getenv("KERNELBENCH_WRITE") != ""
	var got []kernelbenchEntry
	for _, c := range kernelCases() {
		got = append(got, kernelbenchMeasure(t, c))
	}

	if write {
		data, err := os.ReadFile(kernelbenchFile)
		var b kernelbenchBaseline
		if err == nil {
			if err := json.Unmarshal(data, &b); err != nil {
				t.Fatal(err)
			}
		}
		b.Suite = "emu-kernel"
		b.Description = "Kernel hot-path cost per full emulation run (TOP partition, ScaLapack+HTTP workload on the paper topologies; synthetic dense-window chain): ns/op, bytes/op, allocs/op plus the deterministic windows/events invariants. Gates: windows/events exact on every case, allocs/op within 2% on sequential cases; ns/op and bytes/op are informational."
		b.Date = "2026-08-08"
		b.CPU = "Intel(R) Xeon(R) Processor @ 2.10GHz"
		b.Benchtime = "auto (testing.Benchmark, best of 3)"
		b.Baseline = got
		out, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelbenchFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", kernelbenchFile, len(got))
		return
	}

	data, err := os.ReadFile(kernelbenchFile)
	if err != nil {
		t.Fatalf("missing committed baseline: %v (regenerate with KERNELBENCH_WRITE=1)", err)
	}
	var want kernelbenchBaseline
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantBy, gotBy := kernelbenchByName(want.Baseline), kernelbenchByName(got)
	for _, c := range kernelCases() {
		w, ok := wantBy[c.name]
		if !ok {
			t.Errorf("%s: not in committed baseline (regenerate with KERNELBENCH_WRITE=1)", c.name)
			continue
		}
		g := gotBy[c.name]
		if g.Windows != w.Windows || g.Events != w.Events {
			t.Errorf("%s: run-invariant drift — baseline %d windows/%d events, current %d/%d",
				c.name, w.Windows, w.Events, g.Windows, g.Events)
		}
		// Sequential allocation counts are deterministic modulo tiny runtime
		// variation; allow 2% before calling it drift.
		if c.sequential {
			lo, hi := w.AllocsPerOp*98/100, w.AllocsPerOp*102/100
			if g.AllocsPerOp < lo || g.AllocsPerOp > hi {
				t.Errorf("%s: allocs/op drift — baseline %d, current %d (regenerate with KERNELBENCH_WRITE=1 if intentional)",
					c.name, w.AllocsPerOp, g.AllocsPerOp)
			}
		}
	}
}
