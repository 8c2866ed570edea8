package mapping

import (
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/metrics"
	"repro/internal/netflow"
	"repro/internal/partition"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// gameFixture profiles a short Campus run under TOP and returns the mapping
// input plus the TOP assignment the remap policies start from.
func gameFixture(t *testing.T) (Input, []int) {
	t.Helper()
	nw := topogen.Campus()
	const k = 3
	in := Input{Network: nw, K: k, PartOpts: partition.Options{Seed: 1}}
	top, err := TopMap(in)
	if err != nil {
		t.Fatal(err)
	}
	w := traffic.DefaultHTTP(30, 4).Generate(nw)
	prof, err := emu.Run(emu.Config{
		Network: nw, Assignment: top, NumEngines: k, Workload: w, Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Summary = prof.NetFlow.Summarize()
	return in, top
}

func TestGameRemapConvergesDeterministically(t *testing.T) {
	in, top := gameFixture(t)
	next, moved, stats, err := GameRemap(in, top, partition.GameOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err = validPartition(in.Network.NumNodes(), next, in.K); err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("game did not converge in %d rounds", stats.Rounds)
	}
	for i := 1; i < len(stats.Payoffs); i++ {
		if stats.Payoffs[i] > stats.Payoffs[i-1]+1e-9 {
			t.Fatalf("payoff increased at round %d", i)
		}
	}
	again, movedAgain, statsAgain, err := GameRemap(in, top, partition.GameOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next, again) || moved != movedAgain || !reflect.DeepEqual(stats, statsAgain) {
		t.Fatal("two identical GameRemap calls diverged")
	}
	// The input assignment must be untouched (a fresh slice is returned).
	if moved > 0 && reflect.DeepEqual(next, top) {
		t.Fatal("moved > 0 but assignment unchanged")
	}
}

func TestGameRemapFewerMigrationsThanFromScratch(t *testing.T) {
	in, top := gameFixture(t)
	_, movedGame, _, err := GameRemap(in, top, partition.GameOptions{
		MigrationCost: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ProfileMap(in)
	if err != nil {
		t.Fatal(err)
	}
	movedScratch := 0
	for v := range fresh {
		if fresh[v] != top[v] {
			movedScratch++
		}
	}
	if movedGame >= movedScratch {
		t.Fatalf("game moved %d nodes, from-scratch PROFILE moved %d — incremental moves should migrate less",
			movedGame, movedScratch)
	}
}

func TestGameRemapRejectsBadInput(t *testing.T) {
	in, top := gameFixture(t)
	in.Summary = nil
	if _, _, _, err := GameRemap(in, top, partition.GameOptions{}); err == nil {
		t.Fatal("missing summary accepted")
	}
	in, _ = gameFixture(t)
	if _, _, _, err := GameRemap(in, []int{0, 1, 2}, partition.GameOptions{}); err == nil {
		t.Fatal("short assignment accepted")
	}
}

func TestDiffusionRemapBalancesLoad(t *testing.T) {
	nw := topogen.Campus()
	n := nw.NumNodes()
	const k = 3
	// Skewed profile, everything piled on engine 0's nodes.
	sum := &netflow.Summary{NodePackets: make([]int64, n), LinkPackets: make([]int64, len(nw.Links))}
	prev := make([]int, n)
	for v := 0; v < n; v++ {
		prev[v] = v % k
		if v%k == 0 {
			sum.NodePackets[v] = 1000
		} else {
			sum.NodePackets[v] = 10
		}
	}
	in := Input{Network: nw, K: k, Summary: sum, PartOpts: partition.Options{Seed: 1}}
	engineLoads := func(part []int) []float64 {
		loads := make([]float64, k)
		for v, e := range part {
			loads[e] += float64(sum.NodePackets[v])
		}
		return loads
	}
	before := metrics.Imbalance(engineLoads(prev))
	next, moved, err := DiffusionRemap(in, prev)
	if err != nil {
		t.Fatal(err)
	}
	if err = validPartition(n, next, k); err != nil {
		t.Fatal(err)
	}
	after := metrics.Imbalance(engineLoads(next))
	if moved == 0 || after >= before {
		t.Fatalf("diffusion did not balance: moved %d, imbalance %.3f -> %.3f", moved, before, after)
	}
	// Determinism.
	again, movedAgain, err := DiffusionRemap(in, prev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next, again) || moved != movedAgain {
		t.Fatal("two identical DiffusionRemap calls diverged")
	}
}
