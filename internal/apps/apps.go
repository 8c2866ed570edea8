// Package apps models the paper's two foreground Grid applications as
// deterministic traffic generators: ScaLapack (a regular, evenly
// communicating MPI linear-algebra solve) and GridNPB 3.0 (irregular,
// bursty workflow graphs — Helical Chain, Visualization Pipeline, and Mixed
// Bag, all class S).
//
// The emulator only ever sees packet references, so an application is fully
// characterized here by when it injects which flows between which hosts. The
// two models are deliberately at the opposite ends the paper exploits:
// ScaLapack's traffic is predictable from placement alone (so PLACE ≈
// PROFILE), while GridNPB's is not (so PROFILE wins big) — see §4.2.1.
package apps

import (
	"fmt"
	"math/rand"

	"repro/internal/traffic"
)

// App generates a foreground workload over a fixed set of application hosts.
type App interface {
	// Name identifies the application ("ScaLapack", "GridNPB").
	Name() string
	// Hosts is the number of injection points the application needs.
	Hosts() int
	// Generate emits the application's flows over the given hosts. The
	// returned workload's AppHosts equals hosts and Duration is the
	// application's virtual runtime. It errors when the host slice does not
	// match Hosts() — a configuration mistake, not an internal invariant.
	Generate(hosts []int, seed int64) (traffic.Workload, error)
}

// ---- ScaLapack ----

// ScaLapack models the paper's foreground solver: a 3000×3000 matrix solve
// on 10 nodes over MPICH-G (§4.1.4), running ~10 virtual minutes. The
// communication skeleton is right-looking block LU on a PRows×PCols process
// grid: each iteration broadcasts the current panel along its process row
// and the update multiplier along its process column. Traffic is regular and
// near-uniform across processes — the property that makes placement-based
// prediction accurate for it.
type ScaLapack struct {
	// N is the matrix dimension (default 3000).
	N int
	// NB is the blocking factor (default 100), giving N/NB iterations.
	NB int
	// PRows×PCols is the process grid (default 2×5 = 10 processes).
	PRows, PCols int
	// Duration is the virtual runtime in seconds (default 600, "about 10
	// minutes on our emulation platform").
	Duration float64
	// ScaleBytes multiplies transfer sizes (default 1). Raising it models
	// denser communication phases (e.g. including update-phase traffic)
	// without changing the iteration structure — useful when an experiment
	// compresses the 10-minute run into a shorter virtual window.
	ScaleBytes float64
}

// DefaultScaLapack returns the paper's configuration.
func DefaultScaLapack() ScaLapack {
	return ScaLapack{N: 3000, NB: 100, PRows: 2, PCols: 5, Duration: 600}
}

// Name implements App.
func (s ScaLapack) Name() string { return "ScaLapack" }

// Hosts implements App.
func (s ScaLapack) Hosts() int { return s.PRows * s.PCols }

// Generate implements App. The seed only jitters intra-iteration send times
// slightly; the communication structure is fixed by the algorithm.
func (s ScaLapack) Generate(hosts []int, seed int64) (traffic.Workload, error) {
	if len(hosts) != s.Hosts() {
		return traffic.Workload{}, fmt.Errorf("apps: ScaLapack needs %d hosts, got %d", s.Hosts(), len(hosts))
	}
	grid := func(r, c int) int { return hosts[r*s.PCols+c] }
	scale := s.ScaleBytes
	if scale <= 0 {
		scale = 1
	}

	iters := s.N / s.NB
	if iters < 1 {
		iters = 1
	}
	iterSpan := s.Duration / float64(iters)

	w := traffic.Workload{AppHosts: append([]int(nil), hosts...), Duration: s.Duration}
	rng := rand.New(rand.NewSource(seed)) // one source, reseeded for each of Collect's passes
	w.Flows = traffic.Collect(func(add func(traffic.Flow)) {
		rng.Seed(seed)
		emit := func(src, dst int, t float64, bytes int64) {
			if src != dst && bytes > 0 {
				add(traffic.Flow{Src: src, Dst: dst, Start: t, Bytes: bytes, Tag: "scalapack"})
			}
		}
		for k := 0; k < iters; k++ {
			t := float64(k) * iterSpan
			remaining := s.N - k*s.NB
			if remaining <= 0 {
				break
			}
			// Panel is (remaining × NB) doubles; update row is (NB × remaining).
			panelBytes := int64(float64(remaining) * float64(s.NB) * 8 * scale)
			ownerCol := k % s.PCols
			ownerRow := k % s.PRows

			// Row broadcast: the panel-owning column sends the factored panel
			// to every other column, per process row (ring-pipelined in real
			// ScaLapack; the traffic volume is what matters here).
			for r := 0; r < s.PRows; r++ {
				src := grid(r, ownerCol)
				for c := 0; c < s.PCols; c++ {
					if c == ownerCol {
						continue
					}
					jitter := rng.Float64() * 0.05 * iterSpan
					emit(src, grid(r, c), t+jitter, panelBytes/int64(s.PRows))
				}
			}
			// Column broadcast: the pivot row distributes the update block
			// down each process column.
			for c := 0; c < s.PCols; c++ {
				src := grid(ownerRow, c)
				for r := 0; r < s.PRows; r++ {
					if r == ownerRow {
						continue
					}
					jitter := 0.3*iterSpan + rng.Float64()*0.05*iterSpan
					emit(src, grid(r, c), t+jitter, panelBytes/int64(s.PCols))
				}
			}
		}
	})
	return w, nil
}

// ---- GridNPB ----

// gridTask is one node of a GridNPB data-flow graph.
type gridTask struct {
	// tag labels the task's output flows, like "gridnpb/HC.BT-0".
	tag string
	// benchmark kind ("BT", "SP", "LU", "MG", "FT") — sets compute time and
	// output size.
	kind string
	// succ are indices of downstream tasks receiving this task's output.
	succ []int
}

// GridNPB models the paper's second foreground application: the NAS Grid
// Benchmarks in workflow style (§4.1.4) — the combination of Helical Chain
// (HC), Visualization Pipeline (VP) and Mixed Bag (MB), class S, running
// ~15 virtual minutes. Tasks are placed round-robin on the application
// hosts; each task computes (network-silent) and then bursts its output to
// its successors. The resulting traffic is bursty and concentrated on a few
// host pairs, which is exactly what defeats PLACE's uniform all-pairs
// estimate.
type GridNPB struct {
	// NumHosts is the number of injection points (default 10, matching the
	// paper's platform).
	NumHosts int
	// Duration is the virtual runtime in seconds (default 900, "about 15
	// minutes").
	Duration float64
	// ScaleBytes multiplies transfer sizes (class S data scaled up so the
	// emulated network sees appreciable load; default 1).
	ScaleBytes float64
}

// DefaultGridNPB returns the paper's configuration.
func DefaultGridNPB() GridNPB {
	return GridNPB{NumHosts: 10, Duration: 900, ScaleBytes: 1}
}

// Name implements App.
func (g GridNPB) Name() string { return "GridNPB" }

// Hosts implements App.
func (g GridNPB) Hosts() int {
	if g.NumHosts <= 0 {
		return 10
	}
	return g.NumHosts
}

// taskKinds gives per-benchmark compute durations (relative units) and
// output sizes (bytes, class-S scaled up to exercise the network: GridNPB
// forwards whole solution arrays between tasks).
var taskKinds = map[string]struct {
	compute float64
	output  int64
}{
	"BT": {compute: 9, output: 8 << 20},
	"SP": {compute: 7, output: 6 << 20},
	"LU": {compute: 8, output: 6 << 20},
	"MG": {compute: 3, output: 12 << 20},
	"FT": {compute: 4, output: 16 << 20},
}

// hcGraph builds Helical Chain: BT→SP→LU repeated three times, a strict
// chain.
func hcGraph() []gridTask {
	kinds := []string{"BT", "SP", "LU", "BT", "SP", "LU", "BT", "SP", "LU"}
	tasks := make([]gridTask, len(kinds))
	for i, k := range kinds {
		tasks[i] = gridTask{tag: fmt.Sprintf("gridnpb/HC.%s-%d", k, i), kind: k}
		if i > 0 {
			tasks[i-1].succ = []int{i}
		}
	}
	return tasks
}

// vpGraph builds Visualization Pipeline: three stages (BT flow solver, MG
// smoother, FT visualization) pipelined three deep.
func vpGraph() []gridTask {
	var tasks []gridTask
	id := func(stage, depth int) int { return depth*3 + stage }
	for depth := 0; depth < 3; depth++ {
		for stage, k := range []string{"BT", "MG", "FT"} {
			t := gridTask{tag: fmt.Sprintf("gridnpb/VP.%s-%d", k, depth), kind: k}
			tasks = append(tasks, t)
			_ = stage
		}
	}
	for depth := 0; depth < 3; depth++ {
		for stage := 0; stage < 3; stage++ {
			i := id(stage, depth)
			if stage < 2 {
				tasks[i].succ = append(tasks[i].succ, id(stage+1, depth))
			}
			if depth < 2 {
				// The same stage of the next pipeline wave depends on this
				// wave's instance (pipelining).
				tasks[i].succ = append(tasks[i].succ, id(stage, depth+1))
			}
		}
	}
	return tasks
}

// mbGraph builds Mixed Bag: three layers (LU, MG, FT) with fan-out between
// layers — the most irregular of the three.
func mbGraph() []gridTask {
	var tasks []gridTask
	layerKind := []string{"LU", "MG", "FT"}
	width := 3
	id := func(layer, i int) int { return layer*width + i }
	for layer := 0; layer < 3; layer++ {
		for i := 0; i < width; i++ {
			tasks = append(tasks, gridTask{
				tag:  fmt.Sprintf("gridnpb/MB.%s-%d", layerKind[layer], i),
				kind: layerKind[layer],
			})
		}
	}
	for layer := 0; layer < 2; layer++ {
		for i := 0; i < width; i++ {
			// Fan out to self-index and all later indices of the next layer
			// (triangular dependency pattern, as in the NGB spec).
			for j := i; j < width; j++ {
				tasks[id(layer, i)].succ = append(tasks[id(layer, i)].succ, id(layer+1, j))
			}
		}
	}
	return tasks
}

// Generate implements App: schedules HC, VP and MB concurrently, placing
// tasks on hosts round-robin per graph with a seeded offset, simulating
// compute time between communication bursts.
func (g GridNPB) Generate(hosts []int, seed int64) (traffic.Workload, error) {
	if len(hosts) != g.Hosts() {
		return traffic.Workload{}, fmt.Errorf("apps: GridNPB needs %d hosts, got %d", g.Hosts(), len(hosts))
	}
	duration := g.Duration
	if duration <= 0 {
		duration = 900
	}
	scale := g.ScaleBytes
	if scale <= 0 {
		scale = 1
	}

	w := traffic.Workload{AppHosts: append([]int(nil), hosts...), Duration: duration}
	graphs := [][]gridTask{hcGraph(), vpGraph(), mbGraph()}
	rng := rand.New(rand.NewSource(seed)) // one source, reseeded for each of Collect's passes
	w.Flows = traffic.Collect(func(emit func(traffic.Flow)) {
		rng.Seed(seed)
		// Each graph repeats until the duration is filled; compute times are
		// scaled so one full pass of the longest chain fits in roughly a
		// third of the duration.
		for _, tasks := range graphs {
			offset := rng.Intn(len(hosts))
			place := func(ti int) int { return hosts[(ti+offset)%len(hosts)] }

			// Critical-path length in compute units for time scaling.
			unit := duration / 3 / criticalPath(tasks)

			start := rng.Float64() * 0.1 * duration
			for start < duration {
				finish := scheduleGraph(emit, tasks, place, start, unit, scale, rng)
				if finish <= start {
					break
				}
				// Idle gap between repetitions (workflow restart).
				start = finish + (0.3+0.4*rng.Float64())*unit
			}
		}
	})
	return w, nil
}

// scheduleGraph runs one pass of a task graph starting at t0, emitting
// transfer flows, and returns the completion time of the last task.
func scheduleGraph(emit func(traffic.Flow), tasks []gridTask, place func(int) int, t0, unit, scale float64, rng *rand.Rand) float64 {
	ready := make([]float64, len(tasks))
	for i := range ready {
		ready[i] = t0
	}
	var finishMax float64
	for i, task := range tasks {
		k := taskKinds[task.kind]
		compute := k.compute * unit * (0.85 + 0.3*rng.Float64())
		finish := ready[i] + compute
		if finish > finishMax {
			finishMax = finish
		}
		bytes := int64(float64(k.output) * scale)
		src := place(i)
		for _, s := range task.succ {
			dst := place(s)
			if src != dst && bytes > 0 {
				emit(traffic.Flow{Src: src, Dst: dst, Start: finish, Bytes: bytes, Tag: task.tag})
			}
			// Successor can't start before this output lands; transfer time
			// is approximated as part of the successor's ready lag.
			arr := finish + 0.2*unit
			if arr > ready[s] {
				ready[s] = arr
			}
		}
	}
	return finishMax
}

// criticalPath returns the longest compute path through the task graph in
// compute units.
func criticalPath(tasks []gridTask) float64 {
	memo := make([]float64, len(tasks))
	for i := range memo {
		memo[i] = -1
	}
	var dfs func(i int) float64
	dfs = func(i int) float64 {
		if memo[i] >= 0 {
			return memo[i]
		}
		best := 0.0
		for _, s := range tasks[i].succ {
			if d := dfs(s); d > best {
				best = d
			}
		}
		memo[i] = taskKinds[tasks[i].kind].compute + best
		return memo[i]
	}
	worst := 0.0
	for i := range tasks {
		if d := dfs(i); d > worst {
			worst = d
		}
	}
	if worst <= 0 {
		return 1
	}
	return worst
}
