package emu

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/netgraph"
	"repro/internal/parallel"
)

// This file implements the ICMP subset MaSSF needed for the PLACE approach
// (§3.2): "To get the routing information, we implement the ICMP protocol
// inside the MaSSF, and use the real Linux traceroute tool to discover the
// routing paths between each source-destination pair."
//
// Traceroute here is not an analytic walk over the routing table: probes are
// real events in the conservative DES. Each probe carries a TTL; the router
// at which the TTL expires emits a time-exceeded reply that is itself routed
// back hop by hop; the destination answers the final probe with an echo
// reply. Each hop of every probe and reply is charged as a kernel event to
// the owning engine, so route discovery has the same cost structure it had
// in MaSSF.

// probeBytes is the size of an ICMP probe/reply packet on the wire.
const probeBytes = 60

// The two ICMP packets traceroute needs.
const (
	icmpProbe = uint8(iota) // traveling toward peer with a TTL
	icmpReply               // time-exceeded or echo reply returning to origin
)

// icmpMsg is one ICMP packet in flight — the discovery kernel's payload, a
// pointer-free value like the emulation's own.
type icmpMsg struct {
	kind   uint8
	origin int
	peer   int // probe: the destination; reply: the router that generated it
	node   int // current node
	ttl    int // probes only
	sentAt float64
	seq    int // probe index (== original TTL), identifies the answer slot
}

// TracerouteResult reports an emulated traceroute.
type TracerouteResult struct {
	// Hops lists the discovered path: one entry per TTL, in order, with the
	// measured round-trip time to that hop.
	Hops []netgraph.Hop
	// Probes is the number of probe packets emitted.
	Probes int
	// KernelEvents is the total emulation load the discovery generated.
	KernelEvents int64
}

// tracerouteRun holds the shared state of one discovery execution.
type tracerouteRun struct {
	nw         *netgraph.Network
	rt         netgraph.Routing
	assignment []int
	answers    map[int]netgraph.Hop // seq -> hop
}

// RunTraceroute discovers the route from src to dst by emulating traceroute
// against the virtual network mapped onto numEngines simulation engines.
// maxTTL bounds the probe count (default 32 when <= 0).
func RunTraceroute(nw *netgraph.Network, rt netgraph.Routing, assignment []int, numEngines, src, dst, maxTTL int) (*TracerouteResult, error) {
	if rt == nil {
		rt = nw.AutoRouting()
	}
	if maxTTL <= 0 {
		maxTTL = 32
	}
	if src == dst {
		return &TracerouteResult{}, nil
	}
	if nw.Route(rt, src, dst) == nil {
		return nil, fmt.Errorf("emu: traceroute: no route %d -> %d", src, dst)
	}

	tr := &tracerouteRun{
		nw:         nw,
		rt:         rt,
		assignment: assignment,
		answers:    make(map[int]netgraph.Hop),
	}
	kernel, err := des.New(des.Config[icmpMsg]{
		NumLPs:    numEngines,
		Lookahead: Lookahead(nw, assignment, 0),
		Handler:   tr.handle,
	})
	if err != nil {
		return nil, err
	}

	// One probe per TTL, staggered like a real traceroute's serial probes.
	probes := 0
	for ttl := 1; ttl <= maxTTL; ttl++ {
		t := float64(ttl) * 1e-3
		err := kernel.Schedule(assignment[src], t, icmpMsg{
			kind: icmpProbe, origin: src, peer: dst, node: src, ttl: ttl, sentAt: t, seq: ttl,
		})
		if err != nil {
			return nil, err
		}
		probes++
	}
	stats, err := kernel.Run()
	if err != nil {
		return nil, err
	}

	// Order answers by TTL and cut at the echo reply from dst.
	seqs := make([]int, 0, len(tr.answers))
	for s := range tr.answers {
		seqs = append(seqs, s)
	}
	sort.Ints(seqs)
	res := &TracerouteResult{Probes: probes, KernelEvents: stats.TotalCharges()}
	for _, s := range seqs {
		hop := tr.answers[s]
		res.Hops = append(res.Hops, hop)
		if hop.Node == dst {
			break
		}
	}
	return res, nil
}

func (tr *tracerouteRun) handle(lp int, t float64, m icmpMsg, s *des.Scheduler[icmpMsg]) {
	switch m.kind {
	case icmpProbe:
		tr.handleProbe(t, m, s)
	case icmpReply:
		s.Charge(1)
		tr.sendReply(t, m, s)
	default:
		// Same contract as the main emulation handler: an unknown payload
		// poisons the run instead of killing the process.
		s.Fail(fmt.Errorf("%w: traceroute: unknown ICMP kind %d", ErrBadConfig, m.kind))
	}
}

func (tr *tracerouteRun) handleProbe(t float64, p icmpMsg, s *des.Scheduler[icmpMsg]) {
	s.Charge(1)
	if p.node != p.origin {
		p.ttl--
	}
	if p.node == p.peer || p.ttl == 0 {
		// Echo reply from the destination, or time exceeded: this router
		// reveals itself.
		tr.sendReply(t, icmpMsg{
			kind: icmpReply, origin: p.origin, peer: p.node, node: p.node,
			sentAt: p.sentAt, seq: p.seq,
		}, s)
		return
	}
	tr.forward(t, p, p.peer, s)
}

// sendReply moves a reply one hop toward its origin, where it becomes the
// answer for its probe (at once, when the origin itself generated it).
func (tr *tracerouteRun) sendReply(t float64, r icmpMsg, s *des.Scheduler[icmpMsg]) {
	if r.node == r.origin {
		tr.answers[r.seq] = netgraph.Hop{Node: r.peer, RTT: t - r.sentAt}
		return
	}
	tr.forward(t, r, r.origin, s)
}

// forward moves an ICMP packet one hop toward dst.
func (tr *tracerouteRun) forward(t float64, m icmpMsg, dst int, s *des.Scheduler[icmpMsg]) {
	lid := tr.rt.NextLink(m.node, dst)
	if lid < 0 {
		return // route vanished; drop silently like real ICMP
	}
	link := &tr.nw.Links[lid]
	arrival := t + float64(probeBytes*8)/link.Bandwidth + link.Latency
	m.node = link.Other(m.node)
	s.Schedule(tr.assignment[m.node], arrival, m)
}

// traceroutePairs runs one emulated traceroute per ordered pair, fanning the
// pairs out over a bounded worker pool — every discovery is an independent,
// deterministic DES run, so the resulting map is identical to the serial
// sweep's.
func traceroutePairs(nw *netgraph.Network, rt netgraph.Routing, assignment []int, numEngines int, pairs [][2]int) (map[[2]int][]int, error) {
	paths := make([][]int, len(pairs))
	err := parallel.ForEachErr(len(pairs), 0, func(i int) error {
		res, err := RunTraceroute(nw, rt, assignment, numEngines, pairs[i][0], pairs[i][1], 0)
		if err != nil {
			return err
		}
		paths[i] = hopsToLinks(nw, pairs[i][0], res.Hops)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[[2]int][]int, len(pairs))
	for i, p := range pairs {
		out[p] = paths[i]
	}
	return out, nil
}

// orderedPairs lists the ordered distinct pairs of nodes in slice order.
func orderedPairs(nodes []int) [][2]int {
	pairs := make([][2]int, 0, len(nodes)*(len(nodes)-1))
	for _, src := range nodes {
		for _, dst := range nodes {
			if src != dst {
				pairs = append(pairs, [2]int{src, dst})
			}
		}
	}
	return pairs
}

// DiscoverRoutes runs emulated traceroutes between the given endpoints and
// returns, for each ordered pair, the link path — the data PLACE aggregates
// predicted traffic over. The independent per-pair discoveries run
// concurrently (bounded by GOMAXPROCS). When representatives is true it
// applies the paper's optimization: probe only between each endpoint's
// access router ("one representative endpoint for each sub-network"), then
// splice the access links onto the shared router-to-router path, reducing
// the number of traceroute executions from O(h²) to O(r²).
func DiscoverRoutes(nw *netgraph.Network, rt netgraph.Routing, assignment []int, numEngines int, endpoints []int, representatives bool) (map[[2]int][]int, error) {
	if rt == nil {
		rt = nw.AutoRouting()
	}

	if !representatives {
		return traceroutePairs(nw, rt, assignment, numEngines, orderedPairs(endpoints))
	}

	// Representative mode: traceroute between unique access routers only.
	rep := make(map[int]int, len(endpoints)) // endpoint -> representative router
	var reps []int
	seen := make(map[int]bool)
	for _, e := range endpoints {
		r := nw.AccessRouter(e)
		if r < 0 {
			r = e // endpoint is itself a router
		}
		rep[e] = r
		if !seen[r] {
			seen[r] = true
			reps = append(reps, r)
		}
	}
	core, err := traceroutePairs(nw, rt, assignment, numEngines, orderedPairs(reps))
	if err != nil {
		return nil, err
	}
	out := make(map[[2]int][]int)
	for _, src := range endpoints {
		for _, dst := range endpoints {
			if src == dst {
				continue
			}
			ra, rb := rep[src], rep[dst]
			var links []int
			if src != ra {
				links = append(links, nw.LinkBetween(src, ra))
			}
			if ra != rb {
				links = append(links, core[[2]int{ra, rb}]...)
			}
			if dst != rb {
				links = append(links, nw.LinkBetween(rb, dst))
			}
			out[[2]int{src, dst}] = links
		}
	}
	return out, nil
}

// hopsToLinks reconstructs the link path from a traceroute's hop list.
func hopsToLinks(nw *netgraph.Network, src int, hops []netgraph.Hop) []int {
	links := make([]int, 0, len(hops))
	prev := src
	for _, h := range hops {
		lid := nw.LinkBetween(prev, h.Node)
		if lid >= 0 {
			links = append(links, lid)
		}
		prev = h.Node
	}
	return links
}
