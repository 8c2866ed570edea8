package emu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topogen"
	"repro/internal/traffic"
)

// TestPropertyChargeConservation: total kernel events must equal, for every
// flow, ceil(bytes/chunk-wise MTU packets) summed per hop — independent of
// the partition, engine count, or transport mode.
func TestPropertyChargeConservation(t *testing.T) {
	nw := topogen.Campus()
	rt := nw.SharedRouting()
	hosts := nw.Hosts()
	f := func(seed int64, kRaw, modeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kRaw)%4
		mode := Blast
		if modeRaw%2 == 1 {
			mode = TCPSlowStart
		}
		var w traffic.Workload
		w.Duration = 10
		for i := 0; i < 10; i++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			w.Flows = append(w.Flows, traffic.Flow{
				ID: len(w.Flows), Src: src, Dst: dst,
				Start: rng.Float64() * 5,
				Bytes: int64(1 + rng.Intn(1<<20)),
			})
		}
		assign := make([]int, nw.NumNodes())
		for v := range assign {
			assign[v] = rng.Intn(k)
		}
		res, err := Run(Config{
			Network: nw, Routes: rt, Assignment: assign, NumEngines: k,
			Workload: w, Transport: mode,
		})
		if err != nil {
			return false
		}
		// Expected: per flow, chunks of 64KiB, packets per chunk
		// ceil(chunkBytes/1500), each packet charged once per path node.
		var want int64
		for _, fl := range w.Flows {
			path, _ := nw.RoutePath(rt, fl.Src, fl.Dst)
			remaining := fl.Bytes
			var packets int64
			for remaining > 0 {
				b := int64(64 << 10)
				if b > remaining {
					b = remaining
				}
				remaining -= b
				packets += (b + 1499) / 1500
			}
			want += packets * int64(len(path))
		}
		return res.Kernel.TotalCharges() == want
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyImbalanceInvariantToEngineOrder: permuting engine numbers
// changes nothing about the imbalance metric.
func TestPropertyImbalanceInvariantToEngineOrder(t *testing.T) {
	nw := topogen.Campus()
	w := traffic.DefaultHTTP(10, 3).Generate(nw)
	base := roundRobin(nw.NumNodes(), 3)
	perm := []int{2, 0, 1}
	remapped := make([]int, len(base))
	for v, e := range base {
		remapped[v] = perm[e]
	}
	a, err := Run(Config{Network: nw, Assignment: base, NumEngines: 3, Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Network: nw, Assignment: remapped, NumEngines: 3, Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	if a.Imbalance != b.Imbalance {
		t.Errorf("imbalance changed under engine relabeling: %v vs %v", a.Imbalance, b.Imbalance)
	}
	if a.Kernel.TotalCharges() != b.Kernel.TotalCharges() {
		t.Error("charges changed under engine relabeling")
	}
}
