package mapping

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/partition"
	"repro/internal/topogen"
)

// serialReference is a mapping call's partitioning as it stood before the
// fan-out: the trials one after another, each cloning its own graphs and
// running one-shot partitions in trial order (normalizers, then the final).
func serialReference(t *testing.T, g *partition.Graph, objs []partition.EdgeWeightSet, coef []float64, k int, opts partition.Options) []int {
	t.Helper()
	must := func(part []int, err error) []int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	trials := mappingTrials
	if g.NumVertices() >= largeGraphNodes {
		trials = 1
	}
	parts := make([][]int, trials)
	for trial := range parts {
		o := trialOpts(opts, trial)
		gt := g.WithWeights(objs[0])
		if len(objs) > 1 {
			cuts := make([]int64, len(objs))
			for i, ws := range objs {
				gi := g.WithWeights(ws)
				cuts[i] = partition.EdgeCut(gi, must(partition.Partition(gi, k, o)))
			}
			combined, err := partition.CombineObjectives(g, objs, coef, cuts)
			if err != nil {
				t.Fatal(err)
			}
			gt = g.WithWeights(combined)
		}
		parts[trial] = must(partition.Partition(gt, k, o))
	}
	return pickBest(g, objs[len(objs)-1], k, parts)
}

// atGOMAXPROCS runs fn at each of the settings the fan-out is checked on: the
// inline loop, the host this repository is measured on, and more workers than
// a call has phase-2 tasks.
func atGOMAXPROCS(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), fn)
	}
}

func TestMappingParallelMatchesSerial(t *testing.T) {
	for _, spec := range topogen.Table1() {
		t.Run(spec.Name, func(t *testing.T) {
			nw, err := topogen.ByName(spec.Name, 42)
			if err != nil {
				t.Fatal(err)
			}
			in := goldenInput(t, nw, spec.Engines, 42)

			// The serial answer of the PROFILE instance, computed once; all
			// three approaches also have TestMappingGolden's pins, recorded
			// on a serial loop.
			ref := in
			if err := ref.defaults(); err != nil {
				t.Fatal(err)
			}
			g, objs, err := profileGraph(&ref)
			if err != nil {
				t.Fatal(err)
			}
			want := serialReference(t, g, objs, ref.priorities(), ref.K, ref.PartOpts)

			atGOMAXPROCS(t, func(t *testing.T) {
				for _, a := range Approaches() {
					part, err := Map(a, in)
					if err != nil {
						t.Fatalf("%s: %v", a, err)
					}
					name := fmt.Sprintf("%s/42/%s", spec.Name, a)
					if got := assignmentSHA(part); got != goldenPins[name] {
						t.Errorf("%s: assignment sha %s, pinned %s", name, got, goldenPins[name])
					}
					if a == Profile && !slices.Equal(part, want) {
						t.Errorf("%s: differs from the serial reference", name)
					}
				}
			})
		})
	}
}

// TestTaskErrorIsTheLowestIndex: a phase whose tasks 1 and 3 fail reports
// task 1's error — the one a serial loop stops at — and still ran every task
// with a partitioner no other goroutine was using.
func TestTaskErrorIsTheLowestIndex(t *testing.T) {
	atGOMAXPROCS(t, func(t *testing.T) {
		const n = 5
		pool := make([]partition.Partitioner, runtime.GOMAXPROCS(0))
		inUse := make([]atomic.Bool, len(pool))
		var ran atomic.Int64
		err := forEachTask(pool, n, func(pt *partition.Partitioner, i int) error {
			w := 0
			for &pool[w] != pt {
				w++
			}
			if !inUse[w].CompareAndSwap(false, true) {
				t.Errorf("task %d was handed partitioner %d while another task held it", i, w)
			}
			defer inUse[w].Store(false)
			runtime.Gosched()
			ran.Add(1)
			if i == 1 || i == 3 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 1 failed" {
			t.Errorf("got %v, want task 1's error", err)
		}
		if ran.Load() != n {
			t.Errorf("%d of %d tasks ran", ran.Load(), n)
		}
	})
}

// TestProfileMapAllocs is the gate behind the bench's alloc_mb_per_op on
// map_brite_profile: a warmed ProfileMap of the Brite golden input on the
// inline path (one worker, so one workspace serves all 15 partitions)
// allocates 662 024 bytes in 1 212 mallocs, exact run to run, where per-
// partition scratch, per-vertex graph rows and per-trial clones took
// 2 838 688 in 35 992 (at 415c4a5). The workspace's n×k connectivity table
// (34 KB here) is paid for by the latency and traffic weights building
// without a map (738 136 in 1 248 before both). Bounds 10 % above, for a Go
// release that moves a size class. Every further worker adds one cold
// workspace.
func TestProfileMapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are the race detector's under -race")
	}
	nw, err := topogen.ByName("Brite", 42)
	if err != nil {
		t.Fatal(err)
	}
	in := goldenInput(t, nw, 8, 42)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := ProfileMap(in); err != nil { // warm what the network caches lazily
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ProfileMap(in); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const maxBytes, maxMallocs = 729_000, 1_334
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if bytes > maxBytes || mallocs > maxMallocs {
		t.Errorf("ProfileMap allocated %d bytes in %d mallocs, want at most %d in %d", bytes, mallocs, maxBytes, maxMallocs)
	}
	t.Logf("ProfileMap allocated %d bytes in %d mallocs", bytes, mallocs)
}
