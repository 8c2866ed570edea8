package netgraph

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// tieHeavyNetwork builds a connected network where most links share the same
// latency, so Dijkstra faces many equal-cost paths — the setting where a row
// rebuilt after an eviction would show a divergent tie-break immediately.
func tieHeavyNetwork(n int, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	nw := New("ties")
	for i := 0; i < n; i++ {
		nw.AddRouter("r", 1)
		if i > 0 {
			nw.AddLink(i, rng.Intn(i), 1e9, 1e-3)
		}
	}
	for e := 0; e < 2*n; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			nw.AddLink(a, b, 1e9, 1e-3)
		}
	}
	return nw
}

// TestLazyEvictionMatchesFullCache is the eviction matrix on tie-heavy
// random networks: an oracle holding 1 or 8 rows must answer every
// (src, dst) exactly as one holding all n rows, which never evicts, also
// after the LRU has churned and rows are recomputed. TestNextLinkMatchesOracle
// holds the answers themselves to the full-graph reference.
func TestLazyEvictionMatchesFullCache(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		n := 60
		nw := tieHeavyNetwork(n, seed)
		full, err := NewLazyRouting(nw, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{1, 8} { // far below n: evictions guaranteed
			lazy, err := NewLazyRouting(nw, rows)
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if f, l := full.NextLink(src, dst), lazy.NextLink(src, dst); f != l {
						t.Fatalf("seed %d, %d rows: NextLink(%d,%d) %d, full cache %d", seed, rows, src, dst, l, f)
					}
				}
			}
			// Re-query ascending after the LRU has churned: recomputed rows
			// must still match.
			for src := 0; src < n; src++ {
				if f, l := full.NextLink(src, 0), lazy.NextLink(src, 0); f != l {
					t.Fatalf("seed %d, %d rows: recomputed NextLink(%d,0) %d, full cache %d", seed, rows, src, l, f)
				}
			}
			if s := lazy.stats(); s.Evictions == 0 || s.Sources > s.Capacity {
				t.Fatalf("seed %d: expected eviction churn within capacity, got %+v", seed, s)
			}
		}
		if s := full.stats(); s.Evictions != 0 || s.Sources != nw.routeCore().k {
			t.Fatalf("seed %d: the full cache must hold every core row and evict none, got %+v", seed, s)
		}
	}
}

func TestLazyLRUStats(t *testing.T) {
	nw := tieHeavyNetwork(20, 3)
	lazy, err := NewLazyRouting(nw, 4)
	if err != nil {
		t.Fatal(err)
	}
	order := func() []int {
		var srcs []int
		for _, r := range lazy.lru() {
			srcs = append(srcs, r.src)
		}
		return srcs
	}
	// 5 distinct sources through a 4-row cache: each new source is a miss
	// that computes a row at the front; the fifth evicts source 0, the least
	// recent.
	for src := 0; src < 5; src++ {
		lazy.NextLink(src, 10)
	}
	if got := order(); !slices.Equal(got, []int{4, 3, 2, 1}) {
		t.Fatalf("resident sources %v, want [4 3 2 1]", got)
	}
	if s := lazy.stats(); s.Sources != 4 || s.Capacity != 4 {
		t.Fatalf("stats = %+v, want 4 of 4 rows resident", s)
	}
	// Sources 1..4 are resident: each query is a hit that moves the same row
	// to the front, recomputing and evicting nothing.
	resident := map[int]*lazyRow{}
	for _, r := range lazy.lru() {
		resident[r.src] = r
	}
	for src := 1; src < 5; src++ {
		lazy.NextLink(src, 11)
		if rows := lazy.lru(); len(rows) != 4 || rows[0] != resident[src] {
			t.Fatalf("query %d: resident %v, want its cached row in front", src, order())
		}
	}
	if got := order(); !slices.Equal(got, []int{4, 3, 2, 1}) {
		t.Fatalf("after hits: resident sources %v, want [4 3 2 1]", got)
	}
	// Source 0 was evicted: touching it is a miss that recomputes its row
	// and evicts source 1, now the least recent.
	lazy.NextLink(0, 3)
	if got := order(); !slices.Equal(got, []int{0, 4, 3, 2}) {
		t.Fatalf("after LRU re-touch: resident sources %v, want [0 4 3 2]", got)
	}
}

// TestLazyHitPathAllocFree gates the prepare-time hot path: once a source row
// is cached, queries against it must not allocate.
func TestLazyHitPathAllocFree(t *testing.T) {
	nw := tieHeavyNetwork(40, 5)
	lazy, err := NewLazyRouting(nw, 8)
	if err != nil {
		t.Fatal(err)
	}
	lazy.NextLink(3, 17) // warm the row
	allocs := testing.AllocsPerRun(200, func() {
		lazy.NextLink(3, 21)
		lazy.NextLink(3, 9)
	})
	if allocs != 0 {
		t.Fatalf("lazy hit path allocates %.1f objects per query, want 0", allocs)
	}
}

// TestLazyConcurrentQueries drives an oracle holding 6 of its 40 core rows
// from many goroutines (run under -race in CI), so misses and evictions race
// with hits; every answer is checked against the answers one goroutine read
// first. A third of the nodes are hosts, so leaf sources read their parents'
// rows concurrently.
func TestLazyConcurrentQueries(t *testing.T) {
	nw := tieHeavyNetwork(40, 9)
	for h := 0; h < 20; h++ {
		nw.AddLink(nw.AddHost("h", 1), 2*h, 1e8, 1e-4)
	}
	n := nw.NumNodes()
	want := make([][]int, n)
	full := nw.SharedRouting()
	for src := range want {
		want[src] = make([]int, n)
		for dst := range want[src] {
			want[src][dst] = full.NextLink(src, dst)
		}
	}
	lazy, err := NewLazyRouting(nw, 6)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				if lazy.NextLink(src, dst) != want[src][dst] {
					select {
					case errc <- errors.New("concurrent lazy answer diverged from the sequential one"):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestLazySelfPurgesOnMutation is the invalidation regression: a lazy oracle
// held across an AddLink must serve routes of the new topology, not its
// cached rows.
func TestLazySelfPurgesOnMutation(t *testing.T) {
	nw := New("purge")
	for i := 0; i < 4; i++ {
		nw.AddRouter("r", 1)
	}
	// Line 0-1-2-3.
	nw.AddLink(0, 1, 1e9, 1e-3)
	nw.AddLink(1, 2, 1e9, 1e-3)
	nw.AddLink(2, 3, 1e9, 1e-3)
	lazy, err := NewLazyRouting(nw, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := pathLatency(nw, lazy, 0, 3); d != 3e-3 {
		t.Fatalf("line distance %g, want 3ms", d)
	}
	// A direct shortcut invalidates the cached row.
	short := nw.AddLink(0, 3, 1e9, 1e-4)
	if d := pathLatency(nw, lazy, 0, 3); d != 1e-4 {
		t.Fatalf("post-mutation distance %g, want 0.1ms (stale row served)", d)
	}
	if got := lazy.NextLink(0, 3); got != short {
		t.Fatalf("post-mutation next link %d, want shortcut %d", got, short)
	}
}

// TestSharedRoutingTableMemoized checks the shared oracle: repeated lookups
// return the same oracle without rebuilding, RoutingBuilds counts the
// builds, and a topology mutation makes the next lookup build a fresh one.
func TestSharedRoutingTableMemoized(t *testing.T) {
	nw := randomASNetwork(t, 10, 5, 2, 3)
	if got := nw.RoutingBuilds(); got != 0 {
		t.Fatalf("fresh network reports %d builds", got)
	}
	a := nw.SharedRouting()
	if b := nw.SharedRouting(); b != a {
		t.Error("SharedRouting rebuilt instead of memoizing")
	}
	if got := nw.RoutingBuilds(); got != 1 {
		t.Errorf("RoutingBuilds = %d after two shared lookups, want 1", got)
	}
	nw.AddLink(0, nw.NumNodes()-1, 1e9, 0.5e-3)
	if c := nw.SharedRouting(); c == a {
		t.Error("SharedRouting served a stale oracle after AddLink")
	}
	if got := nw.RoutingBuilds(); got != 2 {
		t.Errorf("RoutingBuilds = %d after invalidation, want 2", got)
	}
}

// TestSharedRoutingDropsAllBackendsOnMutation checks invalidation on every
// oracle a network hands out: after an AddLink the shared oracle is replaced,
// and a caller-built 4-row oracle that had cached rows answers from the new
// topology — both agree with a fresh full-capacity oracle on every pair.
func TestSharedRoutingDropsAllBackendsOnMutation(t *testing.T) {
	nw := tieHeavyNetwork(30, 11)
	small, err := NewLazyRouting(nw, 4)
	if err != nil {
		t.Fatal(err)
	}
	shared := nw.SharedRouting()
	for src := 0; src < nw.NumNodes(); src++ {
		for dst := 0; dst < nw.NumNodes(); dst++ {
			small.NextLink(src, dst)
			shared.NextLink(src, dst)
		}
	}
	nw.AddLink(0, 29, 1e9, 1e-6)
	after := nw.SharedRouting()
	if after == shared {
		t.Fatal("SharedRouting served a stale oracle after AddLink")
	}
	fresh, err := NewLazyRouting(nw, 0)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < nw.NumNodes(); src++ {
		for dst := 0; dst < nw.NumNodes(); dst++ {
			want := fresh.NextLink(src, dst)
			if got := after.NextLink(src, dst); got != want {
				t.Fatalf("shared NextLink(%d,%d) = %d after AddLink, fresh oracle %d", src, dst, got, want)
			}
			if got := small.NextLink(src, dst); got != want {
				t.Fatalf("4-row NextLink(%d,%d) = %d after AddLink, fresh oracle %d", src, dst, got, want)
			}
		}
	}
}

// TestDefaultSizing checks the byte-budgeted capacity: every row up to 8192
// core nodes, the 256 MB budget past it, at least one row, and what
// NewLazyRouting picks for 0 and refuses below it.
func TestDefaultSizing(t *testing.T) {
	for k, want := range map[int]int{0: 1, 1: 1, 100: 100, 8192: 8192, 8193: 8191, 100_000: 671, 1 << 27: 1} {
		if got := DefaultLazyRows(k); got != want {
			t.Errorf("DefaultLazyRows(%d) = %d, want %d", k, got, want)
		}
	}
	nw := tieHeavyNetwork(10, 1)
	nw.AddLink(nw.AddHost("h", 1), 0, 1e8, 1e-4)
	lazy, err := NewLazyRouting(nw, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := nw.routeCore().k
	if s := lazy.stats(); s.Capacity != k {
		t.Errorf("default capacity on %d core nodes is %d rows, want all of them", k, s.Capacity)
	}
	if s := nw.SharedRouting().stats(); s.Capacity != k {
		t.Errorf("the shared oracle holds %d rows of %d", s.Capacity, k)
	}
	if _, err := NewLazyRouting(nw, -1); !errors.Is(err, ErrRoutingConfig) {
		t.Fatalf("NewLazyRouting(-1) = %v, want ErrRoutingConfig", err)
	}
}
