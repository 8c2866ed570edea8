package emu

import (
	"math"
	"math/rand"
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
// size class — below a chunk, whole chunks, chunks plus a tail — and one where
// no two flows share a pair.
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
	return map[string]traffic.Workload{
		"http":     traffic.DefaultHTTP(10, seed).Generate(nw),
		"mixed":    mixed,
		"own-pair": own,
	}
}

// TestFlowTableMatchesPerFlowResolution: the table prepare builds per pair is
// what resolving every flow on its own would have built. For every flow, path
// and links equal a fresh RoutePath and rtt is bit-equal to the per-flow sum;
// the oracle is walked once per distinct pair; every chunk record is reachable
// from exactly one (flow, shape, hop), derives the size the per-flow formula
// gave it, and round-trips the wire to the same pointer.
func TestFlowTableMatchesPerFlowResolution(t *testing.T) {
	for _, name := range []string{"Campus", "TeraGrid", "Brite"} {
		nw, err := topogen.ByName(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		rt := nw.BuildRoutingTable()
		for wname, w := range tableWorkloads(nw, 7) {
			counter := &countingRouting{Routing: rt}
			cfg := Config{Network: nw, Routes: counter, Assignment: roundRobin(nw.NumNodes(), 3), NumEngines: 3, Workload: w}
			e, err := prepare(&cfg, &runOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(e.flows) != len(w.Flows) {
				t.Fatalf("%s/%s: %d table entries for %d flows", name, wname, len(e.flows), len(w.Flows))
			}
			pairs := map[[2]int]bool{}
			walked, seen := 0, make(map[*chunkArrival]bool, len(e.chunks))
			for i, fl := range w.Flows {
				f := &e.flows[i]
				path, links := nw.RoutePath(rt, fl.Src, fl.Dst)
				var oneWay float64
				for _, lid := range links {
					oneWay += nw.Links[lid].Latency
				}
				if !slices.Equal(f.path, path) || !slices.Equal(f.links, links) || math.Float64bits(f.rtt) != math.Float64bits(2*oneWay) {
					t.Fatalf("%s/%s flow %d: route %v %v rtt %v, resolved alone %v %v rtt %v",
						name, wname, i, f.path, f.links, f.rtt, path, links, 2*oneWay)
				}
				if f.idx != i || f.id != fl.ID || f.src != fl.Src || f.dst != fl.Dst || f.start != fl.Start || f.bytes != fl.Bytes {
					t.Fatalf("%s/%s flow %d: entry %+v does not carry %+v", name, wname, i, *f, fl)
				}
				if !pairs[[2]int{fl.Src, fl.Dst}] {
					pairs[[2]int{fl.Src, fl.Dst}] = true
					walked += len(links)
				}
				// The per-flow formula: full groups of ChunkBytes, then the remainder.
				shapes := map[bool][2]int64{}
				if fl.Bytes >= cfg.ChunkBytes {
					shapes[false] = [2]int64{(cfg.ChunkBytes + cfg.MTU - 1) / cfg.MTU, cfg.ChunkBytes}
				}
				if tb := fl.Bytes % cfg.ChunkBytes; tb > 0 {
					shapes[true] = [2]int64{(tb + cfg.MTU - 1) / cfg.MTU, tb}
				}
				for tail, want := range shapes {
					for h := range path {
						c := e.chunkAt(f, h, tail)
						if seen[c] {
							t.Fatalf("%s/%s flow %d hop %d tail=%v shares a record", name, wname, i, h, tail)
						}
						seen[c] = true
						if packets, bytes := e.sizeOf(f, c); int(c.flow) != i || int(c.hop) != h || c.tail != tail || [2]int64{packets, bytes} != want {
							t.Fatalf("%s/%s flow %d hop %d tail=%v: record %+v sized %d/%d, want %v", name, wname, i, h, tail, *c, packets, bytes, want)
						}
						wire, err := e.encodeSent(des.Sent{Data: c})
						if err != nil {
							t.Fatal(err)
						}
						if wire.Packets != want[0] || wire.Bytes != want[1] || int(wire.Flow) != i || int(wire.Hop) != h {
							t.Fatalf("%s/%s flow %d hop %d: wire form %+v", name, wname, i, h, wire)
						}
						back, err := e.decodeWire(wire)
						if err != nil {
							t.Fatal(err)
						}
						if back.Data.(*chunkArrival) != c {
							t.Fatalf("%s/%s flow %d hop %d tail=%v decodes to another record", name, wname, i, h, tail)
						}
					}
				}
			}
			if len(seen) != len(e.chunks) {
				t.Errorf("%s/%s: %d chunk records, %d reachable", name, wname, len(e.chunks), len(seen))
			}
			if counter.queries != walked {
				t.Errorf("%s/%s: %d oracle queries for %d flows over %d pairs, one walk per pair is %d",
					name, wname, counter.queries, len(w.Flows), len(pairs), walked)
			}
			if wname == "own-pair" && len(pairs) != len(w.Flows) {
				t.Fatalf("%s/own-pair: %d pairs for %d flows", name, len(pairs), len(w.Flows))
			}
		}
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
// same pairs make the table's slabs longer, not more numerous, and what is
// allocated per pair is its route (measured: 210 for 86 pairs, whether they
// carry 372 flows or 1 488). Where every flow has a pair of its own the dedup
// finds nothing and set-up must still stay under the ten allocations a flow
// that per-flow resolution paid (2 988 for this workload's 299 flows at
// a049ea3, 640 now).
func TestPrepareAllocsDoNotScaleWithFlows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	nw := topogen.TeraGrid()
	cfg := Config{Network: nw, Routes: nw.BuildRoutingTable(), Assignment: roundRobin(nw.NumNodes(), 5), NumEngines: 5}
	workloads := tableWorkloads(nw, 7)
	w := workloads["mixed"]
	pairs := map[[2]int]bool{}
	for _, f := range w.Flows {
		pairs[[2]int{f.Src, f.Dst}] = true
	}
	var mallocs [2]float64
	for i, times := range []int{1, 4} {
		cfg.Workload = traffic.Workload{Duration: w.Duration}
		for r := 0; r < times; r++ {
			cfg.Workload.Flows = append(cfg.Workload.Flows, w.Flows...)
		}
		mallocs[i] = prepareMallocs(t, cfg)
	}
	// Two of slack: a slab that crosses a size threshold may cost the runtime
	// one bookkeeping allocation of its own.
	if bound := float64(40 + 3*len(pairs)); math.Abs(mallocs[1]-mallocs[0]) > 2 || mallocs[0] > bound {
		t.Errorf("prepare makes %.0f allocations for %d flows and %.0f for %d over the same %d pairs, want the same and at most %.0f",
			mallocs[0], len(w.Flows), mallocs[1], 4*len(w.Flows), len(pairs), bound)
	}
	cfg.Workload = workloads["own-pair"]
	if got, bound := prepareMallocs(t, cfg), float64(40+3*len(cfg.Workload.Flows)); got > bound {
		t.Errorf("prepare makes %.0f allocations for %d flows of distinct pairs, want at most %.0f", got, len(cfg.Workload.Flows), bound)
	}
}
