package netgraph

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// tieHeavyNetwork builds a connected network where most links share the same
// latency, so Dijkstra faces many equal-cost paths — the setting where a
// divergent tie-break between backends would show up immediately.
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

// TestLazyMatchesFlatAllPairs is the equivalence matrix on tie-heavy random
// networks: every (src, dst) next hop must be byte-identical
// between the flat table and the lazy oracle, including after evictions force
// rows to be recomputed.
func TestLazyMatchesFlatAllPairs(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		n := 60
		nw := tieHeavyNetwork(n, seed)
		flat := nw.BuildRoutingTable()
		lazy, err := NewLazyRouting(nw, 8) // far below n: evictions guaranteed
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if f, l := flat.NextLink(src, dst), lazy.NextLink(src, dst); f != l {
					t.Fatalf("seed %d: NextLink(%d,%d) flat %d, lazy %d", seed, src, dst, f, l)
				}
			}
		}
		// Re-query ascending after the LRU has churned: recomputed rows must
		// still match.
		for src := 0; src < n; src++ {
			if f, l := flat.NextLink(src, 0), lazy.NextLink(src, 0); f != l {
				t.Fatalf("seed %d: recomputed NextLink(%d,0) flat %d, lazy %d", seed, src, f, l)
			}
		}
		if s := lazy.stats(); s.Evictions == 0 || s.Sources > s.Capacity {
			t.Fatalf("seed %d: expected eviction churn within capacity, got %+v", seed, s)
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

// TestLazyConcurrentQueries drives the oracle from many goroutines (run under
// -race in CI); every answer is checked against the flat table. A third of
// the nodes are hosts, so leaf sources read their parents' rows concurrently.
func TestLazyConcurrentQueries(t *testing.T) {
	nw := tieHeavyNetwork(40, 9)
	for h := 0; h < 20; h++ {
		nw.AddLink(nw.AddHost("h", 1), 2*h, 1e8, 1e-4)
	}
	n := nw.NumNodes()
	flat := nw.BuildRoutingTable()
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
				if f, l := flat.NextLink(src, dst), lazy.NextLink(src, dst); f != l {
					select {
					case errc <- errors.New("concurrent lazy answer diverged from flat"):
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

// TestSharedRoutingDropsAllBackendsOnMutation checks the generation cache
// across every backend: AddLink must invalidate flat and lazy entries
// alike.
func TestSharedRoutingDropsAllBackendsOnMutation(t *testing.T) {
	nw := tieHeavyNetwork(30, 11)
	opts := []RoutingOptions{
		{Backend: Flat},
		{Backend: Lazy, LazyRows: 4},
	}
	before := make([]Routing, len(opts))
	for i, o := range opts {
		r, err := nw.SharedRouting(o)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = r
		// Memoized: the same options return the identical oracle.
		again, err := nw.SharedRouting(o)
		if err != nil {
			t.Fatal(err)
		}
		if again != r {
			t.Fatalf("%s: SharedRouting did not memoize", o.Backend)
		}
	}
	nw.AddLink(0, 29, 1e9, 1e-6)
	for i, o := range opts {
		r, err := nw.SharedRouting(o)
		if err != nil {
			t.Fatal(err)
		}
		if r == before[i] {
			t.Fatalf("%s: SharedRouting served a stale oracle after AddLink", o.Backend)
		}
	}
}

func TestParseBackend(t *testing.T) {
	for name, want := range map[string]Backend{"auto": Auto, "flat": Flat, "lazy": Lazy} {
		got, err := ParseBackend(name)
		if err != nil || got != want {
			t.Fatalf("ParseBackend(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseBackend("quantum"); !errors.Is(err, ErrRoutingConfig) {
		t.Fatalf("unknown backend error = %v, want ErrRoutingConfig", err)
	}
}

func TestRoutingOptionsValidate(t *testing.T) {
	bad := []RoutingOptions{
		{LazyRows: -1},
		{Backend: Backend(-1)},
		{Backend: Backend(99)},
	}
	for _, o := range bad {
		if err := o.Validate(); !errors.Is(err, ErrRoutingConfig) {
			t.Fatalf("Validate(%+v) = %v, want ErrRoutingConfig", o, err)
		}
	}
	nw := tieHeavyNetwork(10, 1)
	for _, o := range bad {
		if _, err := nw.BuildRouting(o); !errors.Is(err, ErrRoutingConfig) {
			t.Fatalf("BuildRouting(%+v) = %v, want ErrRoutingConfig", o, err)
		}
		if _, err := nw.SharedRouting(o); !errors.Is(err, ErrRoutingConfig) {
			t.Fatalf("SharedRouting(%+v) = %v, want ErrRoutingConfig", o, err)
		}
	}
	if _, err := NewLazyRouting(nw, -1); !errors.Is(err, ErrRoutingConfig) {
		t.Fatalf("NewLazyRouting(-1) = %v, want ErrRoutingConfig", err)
	}
}

// TestAutoPolicy checks the size cutover and that equivalent options share one
// shared-cache entry.
func TestAutoPolicy(t *testing.T) {
	small := tieHeavyNetwork(30, 17)
	r, err := small.SharedRouting(RoutingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*RoutingTable); !ok {
		t.Fatalf("auto on %d nodes picked %T, want the flat table", 30, r)
	}
	// Auto and explicit Flat normalize to the same cache key.
	rf, err := small.SharedRouting(RoutingOptions{Backend: Flat})
	if err != nil {
		t.Fatal(err)
	}
	if rf != r {
		t.Fatal("Auto and Flat built separate oracles on a small network")
	}

	if o := (RoutingOptions{}).normalized(AutoFlatMaxNodes + 1); o.Backend != Lazy {
		t.Fatalf("auto above the flat ceiling picked %v, want Lazy", o.Backend)
	}
	if o := (RoutingOptions{}).normalized(AutoFlatMaxNodes); o.Backend != Flat {
		t.Fatalf("auto at the flat ceiling picked %v, want Flat", o.Backend)
	}
}

func TestDefaultSizing(t *testing.T) {
	if r := DefaultLazyRows(100_000); r < MinLazyRows || r > MaxLazyRows {
		t.Fatalf("DefaultLazyRows(1e5) = %d, outside [%d,%d]", r, MinLazyRows, MaxLazyRows)
	}
	if r := DefaultLazyRows(100); r != 100 {
		t.Fatalf("DefaultLazyRows(100) = %d, want clamped to n", r)
	}
}
