package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/dist"
	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// campusScenario is a small, fast scenario with background + foreground.
func campusScenario(cluster bool) *Scenario {
	return &Scenario{
		Name:       "campus-test",
		Network:    topogen.Campus(),
		Engines:    3,
		Background: traffic.DefaultHTTP(20, 3),
		App:        apps.ScaLapack{N: 600, NB: 100, PRows: 2, PCols: 5, Duration: 20},
		AppSeed:    1,
		PartSeed:   7,
		Cluster:    cluster,
	}
}

func TestSpreadHosts(t *testing.T) {
	nw := topogen.Campus() // 40 hosts
	got := SpreadHosts(nw, 10)
	if len(got) != 10 {
		t.Fatalf("got %d hosts, want 10", len(got))
	}
	seen := map[int]bool{}
	for _, h := range got {
		if seen[h] {
			t.Fatal("duplicate injection point")
		}
		seen[h] = true
	}
	// Requesting more hosts than exist returns all of them.
	if len(SpreadHosts(nw, 999)) != 40 {
		t.Error("overlarge request should return all hosts")
	}
}

func TestWorkloadMergedAndCached(t *testing.T) {
	sc := campusScenario(false)
	w1, err := sc.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Flows) == 0 {
		t.Fatal("empty workload")
	}
	// Contains both tags.
	var hasHTTP, hasApp bool
	for _, f := range w1.Flows {
		switch f.Tag {
		case "http":
			hasHTTP = true
		case "scalapack":
			hasApp = true
		}
	}
	if !hasHTTP || !hasApp {
		t.Errorf("workload missing components: http=%v app=%v", hasHTTP, hasApp)
	}
	w2, _ := sc.Workload()
	if len(w1.Flows) != len(w2.Flows) {
		t.Error("workload not cached/deterministic")
	}
}

func TestRunTopAndPlace(t *testing.T) {
	sc := campusScenario(false)
	for _, a := range []mapping.Approach{mapping.Top, mapping.Place} {
		o, err := sc.Run(context.Background(), a)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if o.Approach != a {
			t.Errorf("approach = %s", o.Approach)
		}
		if o.Result == nil || o.Result.Kernel.TotalCharges() == 0 {
			t.Errorf("%s: empty result", a)
		}
		if _, pre, err := sc.Partition(context.Background(), a); err != nil || pre != nil {
			t.Errorf("%s: unexpected profiling run %v (%v)", a, pre, err)
		}
	}
}

func TestRunProfileHasPreRun(t *testing.T) {
	sc := campusScenario(true)
	o, err := sc.Run(context.Background(), mapping.Profile)
	if err != nil {
		t.Fatal(err)
	}
	_, pre, err := sc.Partition(context.Background(), mapping.Profile)
	if err != nil {
		t.Fatal(err)
	}
	if pre == nil {
		t.Fatal("PROFILE without profiling run")
	}
	if pre.NetFlow == nil {
		t.Error("profiling run did not collect NetFlow")
	}
	if o.Result.Kernel.TotalCharges() != pre.Kernel.TotalCharges() {
		t.Error("profile and final runs saw different workloads")
	}
}

func TestRunAllOrder(t *testing.T) {
	sc := campusScenario(false)
	outs, err := sc.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	want := []mapping.Approach{mapping.Top, mapping.Place, mapping.Profile}
	for i, o := range outs {
		if o.Approach != want[i] {
			t.Errorf("outcome %d = %s, want %s", i, o.Approach, want[i])
		}
	}
	// All approaches saw identical total work.
	for _, o := range outs[1:] {
		if o.Result.Kernel.TotalCharges() != outs[0].Result.Kernel.TotalCharges() {
			t.Error("approaches saw different workloads")
		}
	}
}

func TestRunUnknownApproach(t *testing.T) {
	sc := campusScenario(false)
	if _, err := sc.Run(context.Background(), "NOPE"); err == nil {
		t.Error("unknown approach accepted")
	}
}

// TestRunRefusesCombinations: what the scenario's membership fields and a
// RunOption cannot run together is refused up front with ErrRunConfig, before
// any worker is contacted.
func TestRunRefusesCombinations(t *testing.T) {
	workers := make([]dist.Conn, 1) // never dialed: every row is refused first
	crash := &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 5}}}
	for _, c := range []struct {
		name     string
		approach mapping.Approach
		mod      func(*Scenario)
		opt      RunOption
	}{
		{"crash schedule on workers", mapping.Top, func(sc *Scenario) { sc.Faults = crash }, OnWorkers(workers, dist.Options{})},
		{"crash schedule on elastic workers", mapping.Top, func(sc *Scenario) { sc.Faults = crash }, Elastic(workers, dist.ElasticOptions{})},
		{"RemapEvery on workers", mapping.Top, func(sc *Scenario) { sc.RemapEvery = 10 }, OnWorkers(workers, dist.Options{})},
		{"naive recovery on workers", mapping.Top, func(sc *Scenario) { sc.NaiveRecovery = true }, OnWorkers(workers, dist.Options{})},
		{"checkpoint cadence on workers", mapping.Top, func(sc *Scenario) { sc.CheckpointEvery = 5 }, OnWorkers(workers, dist.Options{})},
		{"migration cost on workers", mapping.Top, func(sc *Scenario) { sc.MigrationCost = 1 }, OnWorkers(workers, dist.Options{})},
		{"elastic from PLACE", mapping.Place, func(*Scenario) {}, Elastic(workers, dist.ElasticOptions{})},
		{"replay of PROFILE", mapping.Profile, func(*Scenario) {}, Replay(nil, &dist.MembershipLog{})},
		{"replay with RemapEvery", mapping.Top, func(sc *Scenario) { sc.RemapEvery = 10 }, Replay(nil, &dist.MembershipLog{})},
	} {
		sc := campusScenario(false)
		c.mod(sc)
		var opts []RunOption
		if c.opt != nil {
			opts = append(opts, c.opt)
		}
		if _, err := sc.Run(context.Background(), c.approach, opts...); !errors.Is(err, ErrRunConfig) {
			t.Errorf("%s: error %v, want ErrRunConfig", c.name, err)
		}
	}
}

func TestScenarioWithoutApp(t *testing.T) {
	sc := &Scenario{
		Name:       "bg-only",
		Network:    topogen.Campus(),
		Engines:    3,
		Background: traffic.DefaultHTTP(10, 1),
	}
	if sc.AppPlacement() != nil {
		t.Error("placement for nil app")
	}
	o, err := sc.Run(context.Background(), mapping.Place)
	if err != nil {
		t.Fatal(err)
	}
	if o.Result.Kernel.TotalCharges() == 0 {
		t.Error("no charges")
	}
}

func TestScenarioDeterministicAcrossRuns(t *testing.T) {
	a, err := campusScenario(false).Run(context.Background(), mapping.Top)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campusScenario(false).Run(context.Background(), mapping.Top)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Imbalance != b.Result.Imbalance {
		t.Errorf("imbalance differs: %v vs %v", a.Result.Imbalance, b.Result.Imbalance)
	}
	if a.Result.AppTime != b.Result.AppTime {
		t.Errorf("AppTime differs: %v vs %v", a.Result.AppTime, b.Result.AppTime)
	}
}

func TestTCPTransportScenario(t *testing.T) {
	blast := campusScenario(false)
	tcp := campusScenario(false)
	tcp.Transport = emu.TCPSlowStart
	a, err := blast.Run(context.Background(), mapping.Top)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tcp.Run(context.Background(), mapping.Top)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Kernel.TotalCharges() != b.Result.Kernel.TotalCharges() {
		t.Errorf("transport changed total load: %d vs %d",
			a.Result.Kernel.TotalCharges(), b.Result.Kernel.TotalCharges())
	}
}

// TestHeterogeneousEngines closes the paper's §5 homogeneity gap: on a
// cluster where engine 0 is twice as fast, capacity-aware mapping
// (EngineSpeeds) must yield lower busy-time imbalance than pretending the
// cluster is uniform.
func TestHeterogeneousEngines(t *testing.T) {
	speeds := []float64{2, 1, 1}
	build := func(aware bool) *Scenario {
		sc := campusScenario(false)
		if aware {
			sc.EngineSpeeds = speeds
		}
		return sc
	}
	busyImbalance := func(sc *Scenario) float64 {
		o, err := sc.Run(context.Background(), mapping.Profile)
		if err != nil {
			t.Fatal(err)
		}
		// Evaluate busy time under the heterogeneous hardware either way:
		// the unaware scenario still runs on the same fast/slow engines.
		w, _ := sc.Workload()
		routes, err := sc.Routes()
		if err != nil {
			t.Fatal(err)
		}
		res, err := emu.Run(emu.Config{
			Network: sc.Network, Routes: routes, Assignment: o.Assignment,
			NumEngines: sc.Engines, Workload: w, EngineSpeeds: speeds,
		})
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Imbalance(res.EngineBusy)
	}
	aware := busyImbalance(build(true))
	blind := busyImbalance(build(false))
	if aware >= blind {
		t.Errorf("capacity-aware busy imbalance %.3f >= capacity-blind %.3f", aware, blind)
	}
}

// TestRoutingBuiltOncePerScenario is the regression for the shared route
// oracle: a core-driven pipeline — partitioning and emulation, every
// approach at once or one alone — must build its oracle exactly once.
func TestRoutingBuiltOncePerScenario(t *testing.T) {
	sc := campusScenario(false)
	if _, err := sc.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sc.Network.RoutingBuilds(); got != 1 {
		t.Errorf("RunAll built the route oracle %d times, want exactly 1", got)
	}

	one := campusScenario(false)
	if _, err := one.Run(context.Background(), mapping.Profile); err != nil {
		t.Fatal(err)
	}
	if got := one.Network.RoutingBuilds(); got != 1 {
		t.Errorf("a PROFILE run built the route oracle %d times, want exactly 1", got)
	}
}

// TestRunAllParallelMatchesSerial checks the fan-out's determinism contract:
// RunAll (concurrent approaches) returns outcomes identical to running each
// approach alone, in approach order. GOMAXPROCS is raised so the concurrent
// path really executes even on single-CPU machines.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	par, err := campusScenario(false).RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(mapping.Approaches()) {
		t.Fatalf("RunAll returned %d outcomes, want %d", len(par), len(mapping.Approaches()))
	}
	for i, a := range mapping.Approaches() {
		if par[i].Approach != a {
			t.Fatalf("outcome %d is %s, want %s (deterministic ordering)", i, par[i].Approach, a)
		}
		solo, err := campusScenario(false).Run(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if len(par[i].Assignment) != len(solo.Assignment) {
			t.Fatalf("%s: assignment lengths differ", a)
		}
		for v := range solo.Assignment {
			if par[i].Assignment[v] != solo.Assignment[v] {
				t.Fatalf("%s: assignment differs at node %d under parallel RunAll", a, v)
			}
		}
		if par[i].Result.Imbalance != solo.Result.Imbalance || par[i].Result.AppTime != solo.Result.AppTime {
			t.Errorf("%s: metrics differ: parallel (%v, %v) vs solo (%v, %v)", a,
				par[i].Result.Imbalance, par[i].Result.AppTime,
				solo.Result.Imbalance, solo.Result.AppTime)
		}
	}
}
