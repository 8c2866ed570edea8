package mapping

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/topogen"
)

func TestRemapSurvivorsBasics(t *testing.T) {
	nw := topogen.Campus()
	in := Input{Network: nw, K: 4, PartOpts: partition.Options{Seed: 1}}
	prev, err := TopMap(in)
	if err != nil {
		t.Fatal(err)
	}

	survivors := []int{0, 1, 3} // engine 2 died
	next, moved, err := RemapOnto(in, prev, survivors, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != nw.NumNodes() {
		t.Fatalf("assignment covers %d nodes, want %d", len(next), nw.NumNodes())
	}
	onSurvivor := map[int]bool{0: true, 1: true, 3: true}
	counts := map[int]int{}
	for v, e := range next {
		if !onSurvivor[e] {
			t.Fatalf("node %d mapped to non-survivor engine %d", v, e)
		}
		counts[e]++
	}
	for _, s := range survivors {
		if counts[s] == 0 {
			t.Errorf("survivor %d received no nodes", s)
		}
	}
	// At minimum the dead engine's nodes moved.
	dead := 0
	for _, e := range prev {
		if e == 2 {
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("test premise broken: engine 2 owned nothing")
	}
	if moved < dead {
		t.Errorf("moved = %d, want >= %d (the dead engine's nodes)", moved, dead)
	}
}

func TestRemapSurvivorsBeatsNaiveDump(t *testing.T) {
	// Remapping must spread the dead engine's weight instead of piling it on
	// one survivor: compare bandwidth-weight imbalance against the naive
	// dump-on-one-survivor fallback.
	nw := topogen.Campus()
	in := Input{Network: nw, K: 4, PartOpts: partition.Options{Seed: 1}}
	prev, err := TopMap(in)
	if err != nil {
		t.Fatal(err)
	}
	survivors := []int{0, 1, 3}
	next, _, err := RemapOnto(in, prev, survivors, nil)
	if err != nil {
		t.Fatal(err)
	}

	naive := append([]int(nil), prev...)
	for v, e := range naive {
		if e == 2 {
			naive[v] = 0
		}
	}
	weight := func(assign []int) []float64 {
		loads := make([]float64, 3)
		slot := map[int]int{0: 0, 1: 1, 3: 2}
		for v, e := range assign {
			loads[slot[e]] += nw.TotalBandwidth(v)
		}
		return loads
	}
	remapImb := metrics.Imbalance(weight(next))
	naiveImb := metrics.Imbalance(weight(naive))
	if remapImb >= naiveImb {
		t.Errorf("remap imbalance %.3f not below naive dump %.3f", remapImb, naiveImb)
	}
}

func TestRemapSurvivorsSingleSurvivor(t *testing.T) {
	nw := topogen.Campus()
	in := Input{Network: nw, K: 3, PartOpts: partition.Options{Seed: 2}}
	prev, err := TopMap(in)
	if err != nil {
		t.Fatal(err)
	}
	next, moved, err := RemapOnto(in, prev, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, e := range next {
		if e != 1 {
			t.Fatalf("node %d on engine %d, want lone survivor 1", v, e)
		}
	}
	want := 0
	for _, e := range prev {
		if e != 1 {
			want++
		}
	}
	if moved != want {
		t.Errorf("moved = %d, want %d", moved, want)
	}
}

func TestRemapSurvivorsValidation(t *testing.T) {
	nw := topogen.Campus()
	in := Input{Network: nw, K: 3}
	prev := make([]int, nw.NumNodes())
	if _, _, err := RemapOnto(in, prev[:3], []int{0}, nil); err == nil {
		t.Error("short previous assignment accepted")
	}
	if _, _, err := RemapOnto(in, prev, nil, nil); err == nil {
		t.Error("empty survivor set accepted")
	}
}

func TestRemapSurvivorsDeterministic(t *testing.T) {
	nw := topogen.Campus()
	in := Input{Network: nw, K: 4, PartOpts: partition.Options{Seed: 5}}
	prev, err := TopMap(in)
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{100, 200, 50, 300}
	a, am, err := RemapOnto(in, prev, []int{0, 1, 3}, loads)
	if err != nil {
		t.Fatal(err)
	}
	b, bm, err := RemapOnto(in, prev, []int{0, 1, 3}, loads)
	if err != nil {
		t.Fatal(err)
	}
	if am != bm {
		t.Fatalf("moved differs: %d vs %d", am, bm)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("assignment differs at node %d", v)
		}
	}
}

func TestRemapOntoGrow(t *testing.T) {
	// Elastic join: the target set is larger than the set that computed the
	// previous assignment. Every target — including the fresh engines — must
	// receive nodes, and the remap must improve the bandwidth-weight balance
	// over leaving the newcomers idle.
	nw := topogen.Campus()
	in := Input{Network: nw, K: 4, PartOpts: partition.Options{Seed: 1}}
	prev, err := TopMap(Input{Network: nw, K: 2, PartOpts: partition.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	targets := []int{0, 1, 2, 3} // engines 2 and 3 just joined
	next, moved, err := RemapOnto(in, prev, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for v, e := range next {
		if e < 0 || e > 3 {
			t.Fatalf("node %d mapped to engine %d outside the target set", v, e)
		}
		counts[e]++
	}
	for _, e := range targets {
		if counts[e] == 0 {
			t.Errorf("target engine %d received no nodes after the grow remap", e)
		}
	}
	if moved == 0 {
		t.Fatal("a grow remap that moves nothing left the new engines idle")
	}
	weight := func(assign []int, m int) float64 {
		loads := make([]float64, m)
		for v, e := range assign {
			loads[e] += nw.TotalBandwidth(v)
		}
		return metrics.Imbalance(loads)
	}
	if got, was := weight(next, 4), weight(prev, 4); got >= was {
		t.Errorf("grow remap imbalance %.3f did not improve on pre-join %.3f", got, was)
	}
}
