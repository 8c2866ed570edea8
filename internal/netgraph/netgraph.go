// Package netgraph models the virtual network that the emulator studies: the
// routers, hosts, and links of the target topology, together with static
// shortest-path routing — the one route oracle the emulator forwards with and
// the PLACE approach reads its routes from.
//
// It corresponds to MaSSF's network description layer: "hosts and routers are
// viewed as graph nodes and network links are taken as graph edges" (§2.1).
package netgraph

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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

	// The shared route oracle (SharedRouting), built at generation
	// sharedGen and rebuilt once a topology mutation bumps gen. gen is atomic
	// so a held oracle can cheaply detect staleness on every query without
	// taking mu. builds counts the shared builds, for the tests asserting
	// that a pipeline shares one oracle.
	mu        sync.Mutex
	gen       atomic.Int64
	shared    *LazyRouting
	sharedGen int64
	builds    atomic.Int64
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
// mutation: SharedRouting builds a fresh oracle on the next lookup, and live
// LazyRouting oracles purge their cached rows on the next query.
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

// Neighbors returns the node IDs adjacent to n.
func (nw *Network) Neighbors(n int) []int {
	out := make([]int, 0, len(nw.adj[n]))
	for _, lid := range nw.adj[n] {
		out = append(out, nw.Links[lid].Other(n))
	}
	return out
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

// leafParents returns, for every leaf, the node it hangs off, and -1 for
// every other node. A leaf is a node with exactly one incident link whose
// other end has at least two — a host on its access link, typically. No
// shortest path passes through a leaf, so the route builders leave leaves
// out of Dijkstra entirely: a leaf is never pushed onto a heap and never a
// source, and its routes are its parent's (routeCore.next). The two ends of
// an isolated link are not leaves of each other: each has one link, so
// neither qualifies, and both stay ordinary sources.
func (nw *Network) leafParents() []int32 {
	parent := make([]int32, len(nw.Nodes))
	for v, links := range nw.adj {
		parent[v] = -1
		if len(links) == 1 {
			if u := nw.Links[links[0]].Other(v); len(nw.adj[u]) >= 2 {
				parent[v] = int32(u)
			}
		}
	}
	return parent
}

// routeCore maps a topology onto its routing core, the k nodes that are not
// leaves: the route oracle stores next hops among these only, and answers
// every query touching a leaf through LazyRouting.next.
type routeCore struct {
	// parent is leafParents: a leaf's parent, -1 for a core node.
	parent []int32
	// slot is a core node's position among the k core nodes (its row and
	// column), and a leaf's one link.
	slot []int32
	k    int
}

func (nw *Network) routeCore() routeCore {
	c := routeCore{parent: nw.leafParents(), slot: make([]int32, len(nw.Nodes))}
	for v, p := range c.parent {
		if p < 0 {
			c.slot[v] = int32(c.k)
			c.k++
		} else {
			c.slot[v] = int32(nw.adj[v][0])
		}
	}
	return c
}

// memoryBytes is the mapping's footprint: parent and slot, 4 bytes a node each.
func (c *routeCore) memoryBytes() int64 { return 8 * int64(len(c.parent)) }

// pqItem is one priority-queue entry: a node (an index local to the graph
// being searched) at a tentative distance.
type pqItem struct {
	node int
	dist float64
}

// pqLess orders the Dijkstra frontier by (distance, node) — the same total
// order the original container/heap implementation used, which makes the pop
// sequence (and therefore the built rows) independent of heap layout.
func pqLess(a, b pqItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.node < b.node
}

// dijkstraScratch is the reusable per-oracle state of one Dijkstra
// execution: tentative distances, visited flags, the first-hop-link column
// being built, and the frontier heap's backing array. Distances live only
// here — no row keeps them — and reusing the scratch across sources
// removes every per-source allocation from a row build.
type dijkstraScratch struct {
	dist      []float64
	done      []bool
	firstLink []int32
	heap      []pqItem
}

func newDijkstraScratch(n int) *dijkstraScratch {
	return &dijkstraScratch{
		dist:      make([]float64, n),
		done:      make([]bool, n),
		firstLink: make([]int32, n),
		heap:      make([]pqItem, 0, n),
	}
}

// reset prepares the scratch for a search over n nodes, growing the buffers
// when the previous search was smaller.
func (s *dijkstraScratch) reset(n int) {
	if cap(s.done) < n {
		s.dist = make([]float64, n)
		s.done = make([]bool, n)
		s.firstLink = make([]int32, n)
	}
	s.dist = s.dist[:n]
	s.done = s.done[:n]
	s.firstLink = s.firstLink[:n]
	inf := math.Inf(1)
	for i := range s.dist {
		s.dist[i] = inf
	}
	clear(s.done)
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

// dijkstraRow computes non-leaf source src's next-hop row into next, one
// column per core node in node order (see routeCore), with a deterministic
// tie-break on the first-hop link ID. parent is leafParents:
// Dijkstra runs over the non-leaf nodes only. A leaf could never have
// improved another node's distance — its only link leads back to its
// parent, already settled — so every hop is that of the full search.
func (nw *Network) dijkstraRow(src int, next, parent []int32, s *dijkstraScratch) {
	s.reset(len(nw.Nodes))
	dist, firstLink, done := s.dist, s.firstLink, s.done
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
			if parent[u] >= 0 {
				continue
			}
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
	col := 0
	for v, p := range parent {
		if p < 0 {
			next[col] = firstLink[v]
			col++
		}
	}
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

// RouteLinks returns the link-ID path from src to dst; nil if unreachable or
// src == dst.
func (nw *Network) RouteLinks(rt Routing, src, dst int) []int {
	_, links := nw.RoutePath(rt, src, dst)
	return links
}
