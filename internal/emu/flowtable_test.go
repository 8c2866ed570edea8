package emu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/netgraph"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// countingRouting counts the oracle queries a prepare makes.
type countingRouting struct {
	netgraph.Routing
	queries int
}

func (c *countingRouting) NextLink(src, dst int) int {
	c.queries++
	return c.Routing.NextLink(src, dst)
}

// tableWorkloads are the property test's seeded workloads over one network:
// the paper's HTTP background (many flows per pair), random pairs with every
// size class — below a chunk, whole chunks, chunks plus a tail — one where no
// two flows share a pair, and bulk transfers of many TCP rounds.
func tableWorkloads(nw *netgraph.Network, seed int64) map[string]traffic.Workload {
	const chunk = 64 << 10
	rng := rand.New(rand.NewSource(seed))
	hosts := nw.Hosts()
	sizes := []int64{1, 1499, chunk - 1, chunk, 3 * chunk, chunk + 1, 5*chunk + 7000}
	mixed := traffic.Workload{Duration: 10}
	for i := 0; i < 400; i++ {
		src, dst := hosts[rng.Intn(8)], hosts[rng.Intn(12)]
		if src == dst {
			continue
		}
		mixed.Flows = append(mixed.Flows, traffic.Flow{ID: len(mixed.Flows), Src: src, Dst: dst,
			Start: rng.Float64() * 5, Bytes: sizes[rng.Intn(len(sizes))]})
	}
	own := traffic.Workload{Duration: 10}
	for _, p := range rng.Perm(len(hosts) * len(hosts))[:300] {
		if src, dst := hosts[p/len(hosts)], hosts[p%len(hosts)]; src != dst {
			own.Flows = append(own.Flows, traffic.Flow{ID: len(own.Flows), Src: src, Dst: dst,
				Start: rng.Float64() * 5, Bytes: sizes[rng.Intn(len(sizes))]})
		}
	}
	// Transfers long enough for TCP slow start to reach its window cap and
	// stay there: every round count from 5 to 11, with and without a tail.
	bulk := traffic.Workload{Duration: 10}
	for i, chunks := range []int64{30, 31, 32, 62, 63, 64, 95, 96, 200} {
		for j, extra := range []int64{0, 1, 7000} {
			bulk.Flows = append(bulk.Flows, traffic.Flow{ID: len(bulk.Flows), Src: hosts[i%4], Dst: hosts[4+j],
				Start: float64(i), Bytes: chunks*chunk + extra})
		}
	}
	return map[string]traffic.Workload{
		"http":     traffic.DefaultHTTP(10, seed).Generate(nw),
		"mixed":    mixed,
		"own-pair": own,
		"bulk":     bulk,
	}
}

// wireStreamSHA is the SHA-256 of every wire event
// TestFlowTableMatchesPerFlowResolution encodes, in its visiting order, as
// binary.Write lays a WireEvent out — recorded at 6d782c8, where the payloads
// were a flowStart, a *chunkArrival from the chunk slab and a tcpRound carrying
// its own offset and window.
const wireStreamSHA = "683992c67ebdb3c437a2a198d92321a93cff95a69b27ce019fe3ae239b67af6b"

// slotPath decodes a route's link slots from src into the node path and link
// IDs RoutePath returns: slot 2·l crosses link l from its A end to its B end,
// slot 2·l+1 the other way. A slot that does not leave the node the route has
// reached decodes to (nil, nil).
func slotPath(nw *netgraph.Network, src int, slots []int32) (path, links []int) {
	path = []int{src}
	for _, s := range slots {
		l := nw.Links[s/2]
		from, to := l.A, l.B
		if s%2 == 1 {
			from, to = l.B, l.A
		}
		if from != path[len(path)-1] {
			return nil, nil
		}
		path, links = append(path, to), append(links, int(s/2))
	}
	return path, links
}

// TestFlowTableMatchesPerFlowResolution: the table prepare builds per pair is
// what resolving every flow on its own would have built, and the payload is
// the whole universe of events over it. The table aliases Workload.Flows and
// adds one route index per flow; the slab holds one route per distinct pair,
// shared by all its flows. For every flow, its route's slots decode to the
// path and links of a fresh RoutePath and rtt is bit-equal to the per-flow
// sum; the oracle is walked twice per distinct pair, once to count its hops
// and once to fill the exactly sized slab. For every flow's start, every (shape, hop) the
// per-flow formula gives it and — under slow start — every round the per-flow
// loop releases, the payload derives the formula's size or the loop's offset
// and window, encodes to exactly that wire event, and decodes back to itself;
// the encoded stream is byte-equal to the one the pointer payloads produced.
func TestFlowTableMatchesPerFlowResolution(t *testing.T) {
	stream := sha256.New()
	for _, name := range []string{"Campus", "TeraGrid", "Brite"} {
		nw, err := topogen.ByName(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		rt := nw.SharedRouting()
		workloads := tableWorkloads(nw, 7)
		for _, wname := range []string{"http", "mixed", "own-pair", "bulk"} {
			for _, transport := range []TransportMode{Blast, TCPSlowStart} {
				w := workloads[wname]
				counter := &countingRouting{Routing: rt}
				cfg := Config{Network: nw, Routes: counter, Assignment: roundRobin(nw.NumNodes(), 3), NumEngines: 3, Workload: w, Transport: transport}
				e, err := prepare(&cfg, &runOptions{})
				if err != nil {
					t.Fatal(err)
				}
				// The table reads the workload in place: no per-flow copy.
				aliased := len(w.Flows) == 0 || &e.flows[0] == &w.Flows[0]
				if len(e.flows) != len(w.Flows) || len(e.routeIdx) != len(w.Flows) || !aliased {
					t.Fatalf("%s/%s: %d flows (aliased: %v) and %d route indexes for %d flows",
						name, wname, len(e.flows), aliased, len(e.routeIdx), len(w.Flows))
				}
				// roundTrip encodes p — which must give exactly want — into the
				// stream and decodes it back to p.
				roundTrip := func(p payload, want WireEvent) {
					t.Helper()
					wire, err := e.encodeSent(des.Sent[payload]{Data: p})
					if err != nil {
						t.Fatal(err)
					}
					if wire != want {
						t.Fatalf("%s/%s: %+v encodes to %+v, want %+v", name, wname, p, wire, want)
					}
					if err := binary.Write(stream, binary.LittleEndian, wire); err != nil {
						t.Fatal(err)
					}
					if back, err := e.decodeWire(wire); err != nil || back.Data != p {
						t.Fatalf("%s/%s: %+v decodes from its own wire form %+v as %+v (%v)", name, wname, p, wire, back.Data, err)
					}
				}
				pairs := map[[2]int]int32{}
				walked := 0
				for i, fl := range w.Flows {
					flow := int32(i)
					rpath, rlinks := slotPath(nw, fl.Src, e.routeOf(flow))
					path, links := nw.RoutePath(rt, fl.Src, fl.Dst)
					var oneWay float64
					for _, lid := range links {
						oneWay += nw.Links[lid].Latency
					}
					if rtt := e.rttOf(flow); !slices.Equal(rpath, path) || !slices.Equal(rlinks, links) || math.Float64bits(rtt) != math.Float64bits(2*oneWay) {
						t.Fatalf("%s/%s flow %d: route %v %v rtt %v, resolved alone %v %v rtt %v",
							name, wname, i, rpath, rlinks, rtt, path, links, 2*oneWay)
					}
					// One slab entry per pair: every flow of a pair shares the first one's.
					pair := [2]int{fl.Src, fl.Dst}
					if idx, seen := pairs[pair]; !seen {
						pairs[pair] = e.routeIdx[i]
						walked += len(links)
					} else if idx != e.routeIdx[i] {
						t.Fatalf("%s/%s flow %d: pair %v routed by entry %d, an earlier flow of it by %d", name, wname, i, pair, e.routeIdx[i], idx)
					}
					roundTrip(payload{flow: flow, kind: kindFlowStart}, WireEvent{Kind: WireFlowStart, Flow: flow})
					// The per-flow formula: full groups of ChunkBytes, then the remainder.
					type shape struct {
						kind           uint8
						packets, bytes int64
					}
					var shapes []shape
					if fl.Bytes >= cfg.ChunkBytes {
						shapes = append(shapes, shape{kindChunk, (cfg.ChunkBytes + cfg.MTU - 1) / cfg.MTU, cfg.ChunkBytes})
					}
					if tb := fl.Bytes % cfg.ChunkBytes; tb > 0 {
						shapes = append(shapes, shape{kindTailChunk, (tb + cfg.MTU - 1) / cfg.MTU, tb})
					}
					for _, sh := range shapes {
						if packets, bytes := e.sizeOf(flow, sh.kind); packets != sh.packets || bytes != sh.bytes {
							t.Fatalf("%s/%s flow %d kind %d: sized %d/%d, want %d/%d", name, wname, i, sh.kind, packets, bytes, sh.packets, sh.bytes)
						}
						for h := range path {
							roundTrip(payload{flow: flow, arg: int32(h), kind: sh.kind},
								WireEvent{Kind: WireChunk, Flow: flow, Hop: int32(h), Packets: sh.packets, Bytes: sh.bytes})
						}
					}
					if transport != TCPSlowStart || e.rttOf(flow) <= 0 {
						continue
					}
					// The per-flow loop startFlowTCP ran before rounds were named
					// by index, verbatim.
					remaining := fl.Bytes
					var offset int64
					window := 1
					round := int32(0)
					for remaining > 0 {
						roundBytes := int64(window) * cfg.ChunkBytes
						if roundBytes > remaining {
							roundBytes = remaining
						}
						roundTrip(payload{flow: flow, arg: round, kind: kindTCPRound},
							WireEvent{Kind: WireTCPRound, Flow: flow, Offset: offset, Window: int32(window)})
						offset += roundBytes
						remaining -= roundBytes
						round++
						window *= 2
						if window > tcpMaxWindow {
							window = tcpMaxWindow
						}
					}
					// ... and the one after the flow's last is nobody's.
					offset, window = e.roundShape(round)
					if _, err := e.decodeWire(WireEvent{Kind: WireTCPRound, Flow: flow, Offset: offset, Window: int32(window)}); !errors.Is(err, ErrBadConfig) {
						t.Fatalf("%s/%s flow %d: round %d past its %d bytes decodes (%v)", name, wname, i, round, fl.Bytes, err)
					}
				}
				if counter.queries != 2*walked {
					t.Errorf("%s/%s: %d oracle queries for %d flows over %d pairs, two walks per pair is %d",
						name, wname, counter.queries, len(w.Flows), len(pairs), 2*walked)
				}
				if routes := len(e.routeAt) - 1; routes != len(pairs) || len(e.slots) != walked {
					t.Errorf("%s/%s: %d routes of %d slots for %d pairs of %d hops", name, wname, routes, len(e.slots), len(pairs), walked)
				}
				if wname == "own-pair" && len(pairs) != len(w.Flows) {
					t.Fatalf("%s/own-pair: %d pairs for %d flows", name, len(pairs), len(w.Flows))
				}
			}
		}
	}
	if got := hex.EncodeToString(stream.Sum(nil)); got != wireStreamSHA {
		t.Errorf("encoded wire stream hashes to %s, want %s", got, wireStreamSHA)
	}
}

// repeated is w's flows times times over, over the same pairs.
func repeated(w traffic.Workload, times int) traffic.Workload {
	out := traffic.Workload{Duration: w.Duration}
	for r := 0; r < times; r++ {
		out.Flows = append(out.Flows, w.Flows...)
	}
	return out
}

// prepareBytes is the least one prepare of cfg allocated in three tries.
func prepareBytes(t *testing.T, cfg Config) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		c := cfg
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := prepare(&c, &runOptions{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestPrepareBytesPerFlow is the set-up bytes gate: what prepare allocates per
// flow is its route index (4 B) and its NetState delivery slots (Delivered and
// FCTs, 16 B); identity, start and size are the workload's own, read in place.
// Quadrupling a workload over the same pairs may grow prepare's allocation by
// that, plus an eighth for the size classes the three slabs round up to
// (measured: 20.6 B per added flow; the per-flow copy of the workload cost
// 97.3 at 92111c9).
func TestPrepareBytesPerFlow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are the race detector's under -race")
	}
	nw := topogen.TeraGrid()
	cfg := Config{Network: nw, Routes: nw.SharedRouting(), Assignment: roundRobin(nw.NumNodes(), 5), NumEngines: 5}
	w := tableWorkloads(nw, 7)["mixed"]
	var allocated [2]uint64
	for i, times := range []int{1, 4} {
		cfg.Workload = repeated(w, times)
		allocated[i] = prepareBytes(t, cfg)
	}
	added := 3 * len(w.Flows)
	const bound = (4 + 16) * 9 / 8.0 // bytes per added flow
	perFlow := (float64(allocated[1]) - float64(allocated[0])) / float64(added)
	t.Logf("prepare: %d B for %d flows, %d B for %d, %.1f B per added flow", allocated[0], len(w.Flows), allocated[1], 4*len(w.Flows), perFlow)
	if perFlow > bound {
		t.Errorf("prepare allocates %d B for %d flows and %d B for %d over the same pairs: %.1f B per added flow, want at most %.1f",
			allocated[0], len(w.Flows), allocated[1], 4*len(w.Flows), perFlow, bound)
	}
}

// TestPrepareBytesPerPair is the route table's bytes gate: a distinct
// (src, dst) pair costs its route's link slots, 4 B a hop in the run's one
// slab, allocated at its final size, plus 64 B for its route offset (4 B,
// allocated the same way) and its pair-map entry, most of it the map's
// growth. Every flow of TeraGrid's own-pair workload on a pair of its own is
// measured against the same flows all on the first one's pair: the
// difference is what the 298 added pairs cost (measured: 77.8 B a pair of
// 5.9 hops; 130.5 B at f748697, when the slab and offsets grew by append,
// against a bound of 4·4·hops + 48; 307.0 B at 1cfb53e, when each pair paid
// a RoutePath allocation of 16 B a hop and a route struct).
func TestPrepareBytesPerPair(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are the race detector's under -race")
	}
	nw := topogen.TeraGrid()
	cfg := Config{Network: nw, Routes: nw.SharedRouting(), Assignment: roundRobin(nw.NumNodes(), 5), NumEngines: 5}
	own := tableWorkloads(nw, 7)["own-pair"]
	one := traffic.Workload{Duration: own.Duration, Flows: slices.Clone(own.Flows)}
	hops := 0
	for i, f := range own.Flows {
		hops += len(nw.RouteLinks(cfg.Routes, f.Src, f.Dst))
		one.Flows[i].Src, one.Flows[i].Dst = own.Flows[0].Src, own.Flows[0].Dst
	}
	cfg.Workload = own
	distinct := prepareBytes(t, cfg)
	cfg.Workload = one
	shared := prepareBytes(t, cfg)
	added := len(own.Flows) - 1
	perPair := (float64(distinct) - float64(shared)) / float64(added)
	bound := 4*float64(hops)/float64(len(own.Flows)) + 64
	t.Logf("prepare: %d B for %d flows on their own pairs (%d hops), %d B on one pair: %.1f B per added pair", distinct, len(own.Flows), hops, shared, perPair)
	if perPair > bound {
		t.Errorf("prepare allocates %.1f B per added distinct pair of %.1f hops, want at most %.1f",
			perPair, float64(hops)/float64(len(own.Flows)), bound)
	}
}

// prepareMallocs counts one prepare's allocations.
func prepareMallocs(t *testing.T, cfg Config) float64 {
	return testing.AllocsPerRun(3, func() {
		cfg := cfg
		if _, err := prepare(&cfg, &runOptions{}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPrepareAllocsDoNotScaleWithFlows is the set-up gate: more flows over the
// same pairs make the table's slabs longer, not more numerous, and no pair
// costs an allocation of its own: every route's link slots go into one slab
// and the route offsets into another, each allocated once at its final size,
// so the pairs cost only the growth of the pair map, about two allocations a
// doubling of the pairs, on 16 for everything else (measured: 30 for 86
// pairs, whether they carry 372 flows or 1 488; 45 at f748697, when the
// slab and the offsets grew by append under a bound of 35 + 2 a doubling;
// 122 at 1cfb53e, when each pair's RoutePath was an allocation, and 200 when
// every route was a heap object of its own, at 92111c9). Where every flow has
// a pair of its own the dedup finds nothing and set-up stays on the same line
// (34 for this workload's 299 flows; 54 at f748697, 341 at 1cfb53e, 630 at
// 92111c9, and per-flow resolution paid 2 988 at a049ea3). The bound is that
// line plus 5 % for the pair map's growth under another Go release.
func TestPrepareAllocsDoNotScaleWithFlows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	nw := topogen.TeraGrid()
	cfg := Config{Network: nw, Routes: nw.SharedRouting(), Assignment: roundRobin(nw.NumNodes(), 5), NumEngines: 5}
	workloads := tableWorkloads(nw, 7)
	w := workloads["mixed"]
	pairs := map[[2]int]bool{}
	for _, f := range w.Flows {
		pairs[[2]int{f.Src, f.Dst}] = true
	}
	var mallocs [2]float64
	for i, times := range []int{1, 4} {
		cfg.Workload = repeated(w, times)
		mallocs[i] = prepareMallocs(t, cfg)
	}
	// Two of slack: a slab that crosses a size threshold may cost the runtime
	// one bookkeeping allocation of its own.
	bound := func(pairs int) float64 { return 1.05 * float64(16+2*bits.Len(uint(pairs))) }
	if bound := bound(len(pairs)); math.Abs(mallocs[1]-mallocs[0]) > 2 || mallocs[0] > bound {
		t.Errorf("prepare makes %.0f allocations for %d flows and %.0f for %d over the same %d pairs, want the same and at most %.0f",
			mallocs[0], len(w.Flows), mallocs[1], 4*len(w.Flows), len(pairs), bound)
	}
	cfg.Workload = workloads["own-pair"]
	if got, bound := prepareMallocs(t, cfg), bound(len(cfg.Workload.Flows)); got > bound {
		t.Errorf("prepare makes %.0f allocations for %d flows of distinct pairs, want at most %.0f", got, len(cfg.Workload.Flows), bound)
	}
}
