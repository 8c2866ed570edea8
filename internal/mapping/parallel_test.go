package mapping

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
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
	withWeights := func(ws partition.EdgeWeightSet) *partition.Graph {
		cp := g.Clone()
		cp.SetWeights(ws)
		return cp
	}
	trials := mappingTrials
	if g.NumVertices() >= largeGraphNodes {
		trials = 1
	}
	parts := make([][]int, trials)
	for trial := range parts {
		o := trialOpts(opts, trial)
		gt := withWeights(objs[0])
		if len(objs) > 1 {
			cuts := make([]int64, len(objs))
			for i, ws := range objs {
				gi := withWeights(ws)
				cuts[i] = partition.EdgeCut(gi, must(partition.Partition(gi, k, o)))
			}
			gt = g.Clone()
			if err := partition.CombineObjectives(gt, objs, coef, cuts); err != nil {
				t.Fatal(err)
			}
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

// TestPooledWorkersAreInvisible: mapping calls share one pool of workers, so
// a call may get a partitioner and a graph copy last sized for another n,
// Ncon or k. TOP, PLACE and PROFILE on Brite (k = 8), TeraGrid (k = 5) and
// Campus (k = 3) run in three shuffled orders, then all at once as concurrent
// calls, as core.RunAll makes them; every answer must be the pinned one and
// that of the serial reference, whose partitions each use a fresh
// Partitioner.
func TestPooledWorkersAreInvisible(t *testing.T) {
	type job struct {
		name string
		a    Approach
		in   Input
		want []int
	}
	var jobs []job
	for _, spec := range topogen.Table1() {
		nw, err := topogen.ByName(spec.Name, 42)
		if err != nil {
			t.Fatal(err)
		}
		in := goldenInput(t, nw, spec.Engines, 42)
		for _, a := range Approaches() {
			g, objs, coef, opts, err := Instance(a, in)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/42/%s", spec.Name, a)
			want := serialReference(t, g, objs, coef, in.K, opts)
			if got := assignmentSHA(want); got != goldenPins[name] {
				t.Fatalf("%s: the serial reference's sha %s, pinned %s", name, got, goldenPins[name])
			}
			jobs = append(jobs, job{name, a, in, want})
		}
	}
	check := func(j job, part []int, err error) {
		if err != nil {
			t.Errorf("%s: %v", j.name, err)
		} else if !slices.Equal(part, j.want) {
			t.Errorf("%s: differs from the fresh-partitioner answer", j.name)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 3; round++ {
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		for _, j := range jobs {
			part, err := Map(j.a, j.in)
			check(j, part, err)
		}
	}

	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part, err := Map(j.a, j.in)
			check(j, part, err)
		}()
	}
	wg.Wait()
}

// TestTaskErrorIsTheLowestIndex: a phase whose tasks 1 and 3 fail reports
// task 1's error — the one a serial loop stops at — and still ran every task
// with a worker no other goroutine was using.
func TestTaskErrorIsTheLowestIndex(t *testing.T) {
	atGOMAXPROCS(t, func(t *testing.T) {
		const n = 5
		var mu sync.Mutex
		inUse := make(map[*worker]bool)
		hold := func(w *worker, held bool) bool {
			mu.Lock()
			defer mu.Unlock()
			was := inUse[w]
			inUse[w] = held
			return was
		}
		var ran atomic.Int64
		err := forEachTask(n, func(w *worker, i int) error {
			if hold(w, true) {
				t.Errorf("task %d was handed a worker while another task held it", i)
			}
			defer hold(w, false)
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
// map_brite_profile, whose op maps with TOP and then with PROFILE. A warmed
// call on the Brite golden input draws its workers — partitioner workspace
// and weighted graph copy — from the package's pool, so it allocates only its
// own graph, weights and answers: TOP 87 232 B in 837 mallocs and PROFILE
// 148 168 in 1 103 on the inline path (GOMAXPROCS 1), exact run to run. A
// worker built anew adds about 139 KB. At GOMAXPROCS 2 PROFILE took 148 520
// to 175 912 B in 1 115 to 1 121 mallocs over 90 calls: the scheduler picks
// which worker runs which task, so a worker may meet a coarsening hierarchy
// larger than any it has held and grow a slab. Collection is off from the
// warm-up through the measured call, since a GC there could empty the pool.
// Bounds are 10 % above the largest measured, for a Go release that moves a
// size class.
func TestProfileMapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are the race detector's under -race")
	}
	nw, err := topogen.ByName("Brite", 42)
	if err != nil {
		t.Fatal(err)
	}
	in := goldenInput(t, nw, 8, 42)
	for _, c := range []struct {
		name                 string
		procs                int
		call                 func(Input) ([]int, error)
		maxBytes, maxMallocs uint64
	}{
		{"TopMap", 1, TopMap, 95_900, 920},
		{"ProfileMap", 1, ProfileMap, 162_900, 1_213},
		{"ProfileMap", 2, ProfileMap, 194_000, 1_232},
	} {
		t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", c.name, c.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if _, err := c.call(in); err != nil { // fill the pool, warm what the network caches lazily
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := c.call(in); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
			if bytes > c.maxBytes || mallocs > c.maxMallocs {
				t.Errorf("%s allocated %d bytes in %d mallocs, want at most %d in %d", c.name, bytes, mallocs, c.maxBytes, c.maxMallocs)
			}
			t.Logf("%s allocated %d bytes in %d mallocs", c.name, bytes, mallocs)
		})
	}
}
