package netgraph

import (
	"errors"
	"fmt"
)

// Routing is the route-oracle contract the emulator, the mapping approaches,
// and the route discovery consume: static latency-shortest paths, the
// paper's Dijkstra routing. Both implementations answer every next-hop query
// identically and differ only in how they store the answers, so callers can
// choose a backend by footprint. Both store next hops among the k routing-core
// nodes only (see routeCore); a host costs no row or column:
//
//   - RoutingTable: flat all-pairs core next hops, O(k²) memory, O(1) queries.
//   - LazyRouting: per-source Dijkstra rows computed on demand behind a
//     bounded LRU — O(cachedRows·k) memory.
//
// All implementations are safe for concurrent queries after construction.
type Routing interface {
	// NextLink returns the first-hop link from src toward dst, or -1 when
	// src == dst or dst is unreachable.
	NextLink(src, dst int) int
	// MemoryBytes reports the oracle's current table footprint in bytes
	// (backing arrays only, not Go object headers). For LazyRouting it
	// changes as rows are cached and evicted.
	MemoryBytes() int64
}

var (
	_ Routing = (*RoutingTable)(nil)
	_ Routing = (*LazyRouting)(nil)
)

// ErrRoutingConfig reports an infeasible routing configuration — a negative
// LRU size, an unknown backend name or number. Callers test
// with errors.Is.
var ErrRoutingConfig = errors.New("netgraph: bad routing config")

// Backend selects a Routing implementation.
type Backend int

const (
	// Auto picks by topology size: Flat up to AutoFlatMaxNodes nodes, Lazy
	// beyond — small runs keep exact O(1) lookups, large ones stay
	// sub-quadratic without configuration.
	Auto Backend = iota
	// Flat is the dense all-pairs RoutingTable.
	Flat
	// Lazy is the on-demand per-source-row oracle (LazyRouting).
	Lazy
)

func (b Backend) String() string {
	switch b {
	case Auto:
		return "auto"
	case Flat:
		return "flat"
	case Lazy:
		return "lazy"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend parses a backend name ("auto", "flat", "lazy") — the
// cmd/massf -routing flag values. Unknown names wrap ErrRoutingConfig.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "auto":
		return Auto, nil
	case "flat":
		return Flat, nil
	case "lazy":
		return Lazy, nil
	default:
		return Auto, fmt.Errorf("%w: unknown routing backend %q (want auto|flat|lazy)", ErrRoutingConfig, s)
	}
}

// AutoFlatMaxNodes is the largest topology the Auto backend still serves
// with the flat table, at 4 bytes per pair of core nodes: 4·2048² ≈ 16.8 MB
// and ~1.5 s on one core of a 2-vCPU Xeon for 2048 routers, ≈ 2 MB and 0.17 s
// when 1348 of them are hosts. Past it the memory grows quadratically (10⁴
// routers: 400 MB) and the build time faster still, while the lazy oracle
// pays only for the rows a run touches, so Auto switches to lazy. All of the
// paper's topologies (Table 1 and Table 2, ≤ 564 nodes) stay flat.
const AutoFlatMaxNodes = 2048

// DefaultLazyBytes is the lazy oracle's default row-cache budget: 256 MB at
// 4·n bytes a row (a row holds 4·k ≤ 4·n), so 671 rows at 10⁵ nodes and the
// MaxLazyRows cap at or below 16 384 nodes. The automatic row capacity is
// DefaultLazyBytes / (4·n), clamped to [MinLazyRows, MaxLazyRows].
const DefaultLazyBytes = 256 << 20

// MinLazyRows and MaxLazyRows bound the automatic lazy row capacity.
const (
	MinLazyRows = 64
	MaxLazyRows = 4096
)

// RoutingOptions selects and parameterizes a routing backend. The zero value
// is the automatic policy. Options are comparable — Network.SharedRouting
// keys its cache on the normalized value.
type RoutingOptions struct {
	// Backend selects the implementation; Auto (the zero value) picks by
	// topology size.
	Backend Backend
	// LazyRows caps the lazy oracle's LRU row cache. 0 means automatic
	// (byte-budgeted, see DefaultLazyBytes); negative is rejected with
	// ErrRoutingConfig. Ignored by the flat backend.
	LazyRows int
}

// Validate checks the options without resolving automatic values.
func (o RoutingOptions) Validate() error {
	if o.Backend < Auto || o.Backend > Lazy {
		return fmt.Errorf("%w: unknown backend %d", ErrRoutingConfig, int(o.Backend))
	}
	if o.LazyRows < 0 {
		return fmt.Errorf("%w: LazyRows = %d, must be >= 0 (0 = automatic)", ErrRoutingConfig, o.LazyRows)
	}
	return nil
}

// normalized resolves the automatic backend for an n-node topology and zeroes
// fields the chosen backend ignores, so equivalent specs share one cache
// entry (Auto on a small network and explicit Flat are the same key).
func (o RoutingOptions) normalized(n int) RoutingOptions {
	if o.Backend == Auto {
		if n <= AutoFlatMaxNodes {
			o.Backend = Flat
		} else {
			o.Backend = Lazy
		}
	}
	switch o.Backend {
	case Flat:
		o.LazyRows = 0
	case Lazy:
		if o.LazyRows == 0 {
			o.LazyRows = DefaultLazyRows(n)
		}
	}
	return o
}

// DefaultLazyRows returns the automatic lazy row capacity for an n-node
// topology: the DefaultLazyBytes budget divided by 4·n bytes, the most one
// row can take (one int32 next hop per core node), clamped to
// [MinLazyRows, MaxLazyRows] and never above n.
func DefaultLazyRows(n int) int {
	if n <= 0 {
		return MinLazyRows
	}
	rows := DefaultLazyBytes / (4 * n)
	if rows < MinLazyRows {
		rows = MinLazyRows
	}
	if rows > MaxLazyRows {
		rows = MaxLazyRows
	}
	if rows > n {
		rows = n
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// buildRouting dispatches on already-normalized options.
func (nw *Network) buildRouting(o RoutingOptions) (Routing, error) {
	switch o.Backend {
	case Flat:
		return nw.BuildRoutingTable(), nil
	case Lazy:
		return NewLazyRouting(nw, o.LazyRows)
	default:
		return nil, fmt.Errorf("%w: unknown backend %d", ErrRoutingConfig, int(o.Backend))
	}
}

// sharedEntry is one memoized oracle with the topology generation it was
// built against.
type sharedEntry struct {
	gen int64
	r   Routing
}

// SharedRouting returns the network's memoized oracle for the given options,
// building it on first use and after any topology mutation (AddLink /
// AddRouter / AddHost bump the generation, which drops every cached backend,
// flat and lazy alike). Equivalent option values (e.g. Auto on
// a small network and explicit Flat) share one entry. Safe for concurrent
// use; do not mutate the topology while runs are in flight.
func (nw *Network) SharedRouting(o RoutingOptions) (Routing, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	key := o.normalized(len(nw.Nodes))
	nw.mu.Lock()
	defer nw.mu.Unlock()
	gen := nw.gen.Load()
	if e, ok := nw.shared[key]; ok && e.gen == gen {
		return e.r, nil
	}
	r, err := nw.buildRouting(key)
	if err != nil {
		return nil, err
	}
	if nw.shared == nil {
		nw.shared = make(map[RoutingOptions]sharedEntry)
	}
	nw.shared[key] = sharedEntry{gen: gen, r: r}
	return r, nil
}

// AutoRouting returns the shared oracle under the automatic policy — the
// fallback every nil-Routes code path (emu.Run, the mapping approaches)
// uses, so even a bare pipeline on a 10⁵-node topology never materializes
// the O(k²) flat table.
func (nw *Network) AutoRouting() Routing {
	r, err := nw.SharedRouting(RoutingOptions{})
	if err != nil {
		// The zero options always validate and Auto resolves to Flat or
		// Lazy, neither of which can fail to build.
		panic(fmt.Sprintf("netgraph: AutoRouting: %v", err))
	}
	return r
}

// MemoryBytes implements Routing: the flat table's dense footprint, 4 bytes
// (one int32 next hop) per ordered pair of core nodes, plus the core
// mapping.
func (rt *RoutingTable) MemoryBytes() int64 {
	return int64(len(rt.nextLink))*4 + rt.core.memoryBytes()
}
