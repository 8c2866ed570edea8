// Package netgraph models the virtual network that the emulator studies: the
// routers, hosts, and links of the target topology, together with static
// shortest-path routing and an ICMP-style route discovery (the emulated
// traceroute the PLACE approach relies on).
//
// It corresponds to MaSSF's network description layer: "hosts and routers are
// viewed as graph nodes and network links are taken as graph edges" (§2.1).
package netgraph

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// NodeKind distinguishes packet-forwarding routers from traffic-terminating
// hosts.
type NodeKind int

const (
	// Router forwards traffic and keeps a routing table.
	Router NodeKind = iota
	// Host originates and sinks traffic; it has exactly one access link in
	// well-formed topologies (not enforced).
	Host
)

func (k NodeKind) String() string {
	switch k {
	case Router:
		return "router"
	case Host:
		return "host"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one virtual network entity.
type Node struct {
	ID   int
	Kind NodeKind
	// Name is a human-readable label ("sdsc-core-1", "campus-h17").
	Name string
	// AS is the autonomous-system number the node belongs to. Routing table
	// memory grows with the AS router count (the paper's m = 10 + x²).
	AS int
	// Site is an optional placement label (e.g. the TeraGrid site).
	Site string
}

// Link is an undirected network link with capacity and propagation delay.
type Link struct {
	ID int
	// A and B are the endpoints' node IDs.
	A, B int
	// Bandwidth in bits per second.
	Bandwidth float64
	// Latency is the one-way propagation delay in seconds.
	Latency float64
}

// Other returns the endpoint of l that is not node n (panics if n is not an
// endpoint).
func (l Link) Other(n int) int {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	panic(fmt.Sprintf("netgraph: node %d is not an endpoint of link %d", n, l.ID))
}

// Network is the virtual topology.
type Network struct {
	Name  string
	Nodes []Node
	Links []Link
	// adj[n] lists link IDs incident to node n.
	adj [][]int

	// Shared routing cache (SharedRouting / SharedRoutingTable): memoized
	// oracles keyed by normalized RoutingOptions, invalidated by topology
	// mutations via gen. gen is atomic so long-lived oracles (LazyRouting)
	// can cheaply detect staleness on every query without taking mu. builds
	// counts every full routing construction (flat or hierarchical) for the
	// tests asserting that pipelines reuse one table instead of rebuilding
	// O(n²) state.
	mu     sync.Mutex
	gen    atomic.Int64
	shared map[RoutingOptions]sharedEntry
	builds atomic.Int64
}

// New returns an empty network with the given name.
func New(name string) *Network {
	return &Network{Name: name}
}

// AddRouter appends a router node and returns its ID.
func (nw *Network) AddRouter(name string, as int) int {
	return nw.addNode(Node{Kind: Router, Name: name, AS: as})
}

// AddHost appends a host node and returns its ID.
func (nw *Network) AddHost(name string, as int) int {
	return nw.addNode(Node{Kind: Host, Name: name, AS: as})
}

func (nw *Network) addNode(n Node) int {
	n.ID = len(nw.Nodes)
	nw.Nodes = append(nw.Nodes, n)
	nw.adj = append(nw.adj, nil)
	nw.invalidateRouting()
	return n.ID
}

// invalidateRouting marks any cached routing stale after a topology
// mutation: SharedRouting drops every memoized backend (flat, lazy,
// hierarchical) on the next lookup, and live LazyRouting oracles purge their
// cached rows on the next query.
func (nw *Network) invalidateRouting() {
	nw.gen.Add(1)
}

// SetSite labels node n with a site.
func (nw *Network) SetSite(n int, site string) { nw.Nodes[n].Site = site }

// AddLink connects nodes a and b with the given bandwidth (bits/s) and
// one-way latency (seconds), returning the link ID.
func (nw *Network) AddLink(a, b int, bandwidth, latency float64) int {
	l := Link{ID: len(nw.Links), A: a, B: b, Bandwidth: bandwidth, Latency: latency}
	nw.Links = append(nw.Links, l)
	nw.adj[a] = append(nw.adj[a], l.ID)
	nw.adj[b] = append(nw.adj[b], l.ID)
	nw.invalidateRouting()
	return l.ID
}

// NumNodes returns the node count.
func (nw *Network) NumNodes() int { return len(nw.Nodes) }

// NumRouters returns the number of router nodes.
func (nw *Network) NumRouters() int { return nw.countKind(Router) }

// NumHosts returns the number of host nodes.
func (nw *Network) NumHosts() int { return nw.countKind(Host) }

func (nw *Network) countKind(k NodeKind) int {
	c := 0
	for _, n := range nw.Nodes {
		if n.Kind == k {
			c++
		}
	}
	return c
}

// IncidentLinks returns the IDs of links touching node n.
func (nw *Network) IncidentLinks(n int) []int { return nw.adj[n] }

// Neighbors returns the node IDs adjacent to n.
func (nw *Network) Neighbors(n int) []int {
	out := make([]int, 0, len(nw.adj[n]))
	for _, lid := range nw.adj[n] {
		out = append(out, nw.Links[lid].Other(n))
	}
	return out
}

// LinkBetween returns the lowest-latency link directly connecting a and b,
// or -1 if none exists.
func (nw *Network) LinkBetween(a, b int) int {
	best := -1
	for _, lid := range nw.adj[a] {
		if nw.Links[lid].Other(a) == b {
			if best == -1 || nw.Links[lid].Latency < nw.Links[best].Latency {
				best = lid
			}
		}
	}
	return best
}

// TotalBandwidth returns the sum of link bandwidths in and out of node n —
// the TOP approach's vertex weight ("each virtual node is weighted with the
// total bandwidth in and out of it", §3.1).
func (nw *Network) TotalBandwidth(n int) float64 {
	var sum float64
	for _, lid := range nw.adj[n] {
		sum += nw.Links[lid].Bandwidth
	}
	return sum
}

// ASRouterCount returns the number of routers in each AS, keyed by AS number.
func (nw *Network) ASRouterCount() map[int]int {
	out := make(map[int]int)
	for _, n := range nw.Nodes {
		if n.Kind == Router {
			out[n.AS]++
		}
	}
	return out
}

// MemoryWeight returns the paper's memory-requirement estimate for node n:
// routers pay m = 10 + x² where x is the router count of their AS (routing
// table size is O(n²) per AS, §2.2.2 and §5); hosts pay the constant 10.
func (nw *Network) MemoryWeight(n int, asRouters map[int]int) int64 {
	if nw.Nodes[n].Kind != Router {
		return 10
	}
	x := int64(asRouters[nw.Nodes[n].AS])
	return 10 + x*x
}

// Hosts returns the IDs of all host nodes in ID order.
func (nw *Network) Hosts() []int {
	var out []int
	for _, n := range nw.Nodes {
		if n.Kind == Host {
			out = append(out, n.ID)
		}
	}
	return out
}

// Routers returns the IDs of all router nodes in ID order.
func (nw *Network) Routers() []int {
	var out []int
	for _, n := range nw.Nodes {
		if n.Kind == Router {
			out = append(out, n.ID)
		}
	}
	return out
}

// AccessRouter returns the first router reachable from host h (its attachment
// point), or -1 if h has no router neighbor.
func (nw *Network) AccessRouter(h int) int {
	for _, nb := range nw.Neighbors(h) {
		if nw.Nodes[nb].Kind == Router {
			return nb
		}
	}
	return -1
}

// Validate checks topology invariants: link endpoints in range and distinct,
// finite positive bandwidth, finite non-negative latency, every host attached
// by at least one link, and the network connected (if non-empty).
func (nw *Network) Validate() error {
	n := len(nw.Nodes)
	for _, l := range nw.Links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return fmt.Errorf("netgraph: link %d endpoint out of range", l.ID)
		}
		if l.A == l.B {
			return fmt.Errorf("netgraph: link %d is a self loop on node %d", l.ID, l.A)
		}
		if !(l.Bandwidth > 0) || math.IsInf(l.Bandwidth, 1) {
			return fmt.Errorf("netgraph: link %d has bandwidth %g, want finite and positive", l.ID, l.Bandwidth)
		}
		if !(l.Latency >= 0) || math.IsInf(l.Latency, 1) {
			return fmt.Errorf("netgraph: link %d has latency %g, want finite and non-negative", l.ID, l.Latency)
		}
	}
	for _, node := range nw.Nodes {
		if node.Kind == Host && len(nw.adj[node.ID]) == 0 {
			return fmt.Errorf("netgraph: host %d (%s) has no access link", node.ID, node.Name)
		}
	}
	if n > 0 && !nw.connected() {
		return fmt.Errorf("netgraph: network %q is not connected", nw.Name)
	}
	return nil
}

func (nw *Network) connected() bool {
	n := len(nw.Nodes)
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range nw.Neighbors(v) {
			if !seen[nb] {
				seen[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == n
}

// ---- Shortest-path routing ----

// RoutingTable holds, for every ordered pair of nodes, the next-hop link on
// the latency-shortest path. It is the O(n²) structure whose memory footprint
// motivates the paper's memory constraint.
type RoutingTable struct {
	n int
	// nextLink[src*n+dst] is the link ID of the first hop from src toward
	// dst, or -1 when src == dst or dst is unreachable.
	nextLink []int32
	// dist[src*n+dst] is the total path latency in seconds.
	dist []float64
}

// BuildRoutingTable runs Dijkstra from every node over link latencies and
// materializes the full next-hop table, fanning sources out over GOMAXPROCS
// workers. Ties are broken deterministically by link ID, and each source
// writes only its own table row, so the result is byte-identical to the
// sequential build regardless of worker count.
func (nw *Network) BuildRoutingTable() *RoutingTable {
	return nw.BuildRoutingTableParallel(0)
}

// BuildRoutingTableParallel is BuildRoutingTable with an explicit worker
// count: non-positive means GOMAXPROCS, 1 is the exact sequential build the
// equivalence tests compare against.
func (nw *Network) BuildRoutingTableParallel(workers int) *RoutingTable {
	nw.builds.Add(1)
	n := len(nw.Nodes)
	rt := &RoutingTable{
		n:        n,
		nextLink: make([]int32, n*n),
		dist:     make([]float64, n*n),
	}
	w := parallel.Workers(workers, n)
	scratches := make([]*dijkstraScratch, w)
	parallel.ForEachWorker(n, w, func(worker, src int) {
		s := scratches[worker]
		if s == nil {
			s = newDijkstraScratch(n)
			scratches[worker] = s
		}
		base := src * n
		nw.dijkstraRow(src, rt.nextLink[base:base+n], rt.dist[base:base+n], s)
	})
	return rt
}

// SharedRoutingTable returns the network's memoized flat routing table,
// building it on first use and after any topology mutation. It is the
// flat-specific entry of the SharedRouting cache, kept for callers that need
// the dense table itself; size-agnostic code should use SharedRouting or
// AutoRouting, which stay sub-quadratic on large topologies. Safe for
// concurrent use; do not mutate the topology while runs are in flight.
func (nw *Network) SharedRoutingTable() *RoutingTable {
	r, err := nw.SharedRouting(RoutingOptions{Backend: Flat})
	if err != nil {
		// Flat options always validate and the dense build cannot fail.
		panic(fmt.Sprintf("netgraph: SharedRoutingTable: %v", err))
	}
	return r.(*RoutingTable)
}

// RoutingBuilds reports how many full routing constructions (flat or
// hierarchical) this network has performed — the counter the "built exactly
// once per scenario" regression tests watch.
func (nw *Network) RoutingBuilds() int64 { return nw.builds.Load() }

// pqItem is one priority-queue entry: a node (an index local to the graph
// being searched) at a tentative distance.
type pqItem struct {
	node int
	dist float64
}

// pqLess orders the Dijkstra frontier by (distance, node) — the same total
// order the original container/heap implementation used, which makes the pop
// sequence (and therefore the built table) independent of heap layout.
func pqLess(a, b pqItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.node < b.node
}

// dijkstraScratch is the reusable per-worker state of one Dijkstra
// execution: visited flags, the first-hop-link column being built, and the
// frontier heap's backing array. Reusing it across sources removes every
// per-source allocation from the all-pairs build — the same zero-alloc
// treatment the des kernel's event heap got, where container/heap's
// any-typed interface was boxing two allocations onto every push/pop.
type dijkstraScratch struct {
	done      []bool
	firstLink []int32
	heap      []pqItem
}

func newDijkstraScratch(n int) *dijkstraScratch {
	return &dijkstraScratch{
		done:      make([]bool, n),
		firstLink: make([]int32, n),
		heap:      make([]pqItem, 0, n),
	}
}

// reset prepares the scratch for a search over n nodes, growing the buffers
// when the previous search was smaller.
func (s *dijkstraScratch) reset(n int) {
	if cap(s.done) < n {
		s.done = make([]bool, n)
		s.firstLink = make([]int32, n)
	}
	s.done = s.done[:n]
	s.firstLink = s.firstLink[:n]
	for i := range s.done {
		s.done[i] = false
	}
	for i := range s.firstLink {
		s.firstLink[i] = -1
	}
	s.heap = s.heap[:0]
}

// push adds an item to the 4-ary min-heap. A 4-ary layout halves the tree
// depth of the binary heap and keeps each sift's children in one cache line,
// which is where the Dijkstra inner loop spends its time.
func (s *dijkstraScratch) push(it pqItem) {
	s.heap = append(s.heap, it)
	q := s.heap
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !pqLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the minimum item.
func (s *dijkstraScratch) pop() pqItem {
	q := s.heap
	it := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	s.heap = q
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		min := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if pqLess(q[c], q[min]) {
				min = c
			}
		}
		if !pqLess(q[min], q[i]) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return it
}

// dijkstraRow computes one source's next-hop and distance row into the
// caller's slices (each of length n). It is the single row builder the flat
// all-pairs table and the lazy oracle share, which is what makes their rows
// byte-identical: same heap, same deterministic first-hop-link tie-break.
func (nw *Network) dijkstraRow(src int, next []int32, dist []float64, s *dijkstraScratch) {
	n := len(nw.Nodes)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	s.reset(n)
	firstLink, done := s.firstLink, s.done
	dist[src] = 0
	s.push(pqItem{node: src})
	for len(s.heap) > 0 {
		v := s.pop().node
		if done[v] {
			continue
		}
		done[v] = true
		for _, lid := range nw.adj[v] {
			l := &nw.Links[lid]
			u := l.Other(v)
			nd := dist[v] + l.Latency
			first := firstLink[v]
			if v == src {
				first = int32(lid)
			}
			// Strictly better, or equal with a deterministic tie-break on
			// the first-hop link ID.
			if nd < dist[u] || (nd == dist[u] && !done[u] && firstLink[u] > first) {
				dist[u] = nd
				firstLink[u] = first
				s.push(pqItem{node: u, dist: nd})
			}
		}
	}
	copy(next, firstLink)
	next[src] = -1
}

// NextLink returns the first-hop link from src toward dst, or -1.
func (rt *RoutingTable) NextLink(src, dst int) int {
	return int(rt.nextLink[src*rt.n+dst])
}

// Distance returns the total latency of the routed path from src to dst
// (+Inf if unreachable, 0 if src == dst).
func (rt *RoutingTable) Distance(src, dst int) float64 {
	if src == dst {
		return 0
	}
	return rt.dist[src*rt.n+dst]
}

// RoutePath walks the routing oracle from src to dst — the one walk Route and
// RouteLinks wrap — and returns the node path (inclusive of both endpoints)
// and the link IDs between consecutive hops, cut from one exactly sized
// allocation (routes longer than the 32 links the walk buffers on the stack
// pay for that buffer's growth too). Returns (nil, nil) if dst is unreachable
// or the oracle loops: a loop-free route has fewer links than the network has
// nodes.
func (nw *Network) RoutePath(rt Routing, src, dst int) (path, links []int) {
	if src == dst {
		return []int{src}, nil
	}
	var buf [32]int
	walk := buf[:0]
	for cur := src; cur != dst; {
		lid := rt.NextLink(cur, dst)
		if lid < 0 || len(walk) >= len(nw.Nodes) {
			return nil, nil
		}
		walk = append(walk, lid)
		cur = nw.Links[lid].Other(cur)
	}
	n := len(walk)
	out := make([]int, 2*n+1)
	path, links = out[:n+1:n+1], out[n+1:]
	copy(links, walk)
	path[0] = src
	for i, lid := range links {
		path[i+1] = nw.Links[lid].Other(path[i])
	}
	return path, links
}

// Route returns the node path from src to dst, inclusive of both endpoints,
// following the routing table; nil if unreachable.
func (nw *Network) Route(rt Routing, src, dst int) []int {
	path, _ := nw.RoutePath(rt, src, dst)
	return path
}

// RouteLinks returns the link-ID path from src to dst; nil if unreachable or
// src == dst.
func (nw *Network) RouteLinks(rt Routing, src, dst int) []int {
	_, links := nw.RoutePath(rt, src, dst)
	return links
}

// Hop is one line of a Traceroute result.
type Hop struct {
	Node int
	// RTT is the round-trip time to this hop in seconds (twice the one-way
	// accumulated latency, as a real traceroute would observe).
	RTT float64
}

// Traceroute emulates the ICMP-based route discovery the paper implements
// inside MaSSF for the PLACE approach (§3.2): it reports every hop on the
// routed path from src to dst with cumulative round-trip times. Returns nil
// if dst is unreachable.
func (nw *Network) Traceroute(rt Routing, src, dst int) []Hop {
	path := nw.Route(rt, src, dst)
	if path == nil {
		return nil
	}
	hops := make([]Hop, 0, len(path)-1)
	var oneWay float64
	for i := 1; i < len(path); i++ {
		lid := nw.LinkBetween(path[i-1], path[i])
		if lid >= 0 {
			oneWay += nw.Links[lid].Latency
		}
		hops = append(hops, Hop{Node: path[i], RTT: 2 * oneWay})
	}
	return hops
}
