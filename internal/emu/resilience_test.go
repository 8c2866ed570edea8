package emu

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/traffic"
)

// spreadFlows emits several flows 0 -> 3 over the line network, spread across
// the duration so crashes land mid-traffic.
func spreadFlows(n int, duration float64) traffic.Workload {
	w := traffic.Workload{Duration: duration}
	for i := 0; i < n; i++ {
		w.Flows = append(w.Flows, traffic.Flow{
			ID: i, Src: 0, Dst: 3,
			Start: duration * float64(i) / float64(n),
			Bytes: 6000, Tag: "t",
		})
	}
	return w
}

// dumpOn returns an OnMembership that reassigns every node of the dead engine
// to the given survivor.
func dumpOn(survivor int) MembershipPolicy {
	return func(c MembershipChange) ([]int, error) {
		next := append([]int(nil), c.Previous...)
		for v, e := range next {
			if e == c.Dead {
				next[v] = survivor
			}
		}
		return next, nil
	}
}

func TestLookaheadEdgeCases(t *testing.T) {
	nw := lineNet() // all latencies 1 ms

	// No cut links and max latency above the floor: the max latency wins.
	if got := Lookahead(nw, []int{0, 0, 0, 0}, 0); got != 1e-3 {
		t.Errorf("no-cut Lookahead = %v, want 1e-3 (max latency)", got)
	}
	// No cut links and a floor above every latency: the floor wins.
	if got := Lookahead(nw, []int{0, 0, 0, 0}, 0.25); got != 0.25 {
		t.Errorf("no-cut floored Lookahead = %v, want 0.25", got)
	}
	// The default floor (100 µs) applies when nothing is cut on a
	// zero-latency network.
	z := lineNet()
	for i := range z.Links {
		z.Links[i].Latency = 0
	}
	if got := Lookahead(z, []int{0, 0, 0, 0}, 0); got != 100e-6 {
		t.Errorf("zero-latency no-cut Lookahead = %v, want 100e-6 default floor", got)
	}
	// A real cut latency is never overridden by a larger floor.
	if got := Lookahead(nw, []int{0, 1, 1, 1}, 10); got != 1e-3 {
		t.Errorf("cut Lookahead with huge floor = %v, want 1e-3", got)
	}
}

func TestLookaheadPinsWindowWidth(t *testing.T) {
	// The window count of a run is span/lookahead for busy stretches; with
	// the middle link cut at 1 ms, a 30 ms busy span must execute on the
	// order of tens of windows, not thousands.
	nw := lineNet()
	res, err := Run(Config{
		Network:    nw,
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   oneFlow(64000, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lookahead != 1e-3 {
		t.Fatalf("Lookahead = %v, want 1e-3", res.Lookahead)
	}
	span := res.Kernel.VirtualEnd - res.Kernel.SkippedTime
	maxWindows := int64(span/res.Lookahead) + 2
	if res.Kernel.Windows > maxWindows {
		t.Errorf("windows = %d, want <= %d for %.3gs busy span at L=%v",
			res.Kernel.Windows, maxWindows, span, res.Lookahead)
	}
}

// TestMembershipPolicyEngineSet: crashes and resizes reach one hook, and the
// engine set a crash hands it is computed by the emulator — the run's current
// membership (the engines hosting nodes, so capacity no resize ever activated
// stays out) minus the dead. A static run over all its engines, an elastic
// run's replayed worker loss with one never-activated capacity engine, and a
// crash after a resize that activated it.
func TestMembershipPolicyEngineSet(t *testing.T) {
	crash := func(engine int, at float64) *faults.Schedule {
		return &faults.Schedule{Crashes: []faults.Crash{{Engine: engine, At: at}}}
	}
	cases := []struct {
		name       string
		assignment []int
		elastic    []Resize
		faults     *faults.Schedule
		want       []MembershipChange // At, Loads and CheckpointTime are not compared
	}{
		{name: "crash in a static run", assignment: []int{0, 1, 2, 2}, faults: crash(1, 2),
			want: []MembershipChange{{Engines: []int{0, 2}, Previous: []int{0, 1, 2, 2}, Crashed: true, Dead: 1, FailedAt: 2}}},
		{name: "loss with capacity never activated", assignment: []int{0, 0, 1, 1}, faults: crash(1, 2),
			want: []MembershipChange{{Engines: []int{0}, Previous: []int{0, 0, 1, 1}, Crashed: true, Dead: 1, FailedAt: 2}}},
		{name: "resize by policy, then a crash", assignment: []int{0, 0, 1, 1}, faults: crash(0, 5),
			elastic: []Resize{{At: 3, Engines: []int{0, 1, 2}}},
			want: []MembershipChange{
				{Engines: []int{0, 1, 2}, Previous: []int{0, 0, 1, 1}},
				{Engines: []int{1, 2}, Previous: []int{0, 1, 2, 2}, Crashed: true, Dead: 0, FailedAt: 5},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []MembershipChange
			_, err := Run(Config{
				Network: lineNet(), Assignment: tc.assignment, NumEngines: 3, Workload: spreadFlows(8, 8),
				Faults: tc.faults, Elastic: tc.elastic, CheckpointEvery: 1,
				OnMembership: func(c MembershipChange) ([]int, error) {
					if len(c.Loads) != 3 || c.At <= 0 || c.Crashed && (c.At < c.FailedAt || c.CheckpointTime > c.FailedAt) {
						t.Errorf("implausible change %+v", c)
					}
					c.At, c.Loads, c.CheckpointTime = 0, nil, 0
					got = append(got, c)
					if !c.Crashed {
						return []int{0, 1, 2, 2}, nil
					}
					return dumpOn(c.Engines[0])(c)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("the policy was handed\n%+v\nwant\n%+v", got, tc.want)
			}
		})
	}
}

// TestTinyCheckpointCadenceFinishes: a cadence below the float spacing of the
// barrier times advances in one step instead of stalling, so every barrier is
// a cadence barrier and the network outcome is the one any cadence gives.
func TestTinyCheckpointCadenceFinishes(t *testing.T) {
	run := func(every float64) *Result {
		cfg := faultedConfig()
		cfg.CheckpointEvery = every
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tiny, base := run(1e-20), run(1)
	if !reflect.DeepEqual(tiny.FlowFCTs, base.FlowFCTs) || !reflect.DeepEqual(tiny.LinkBytes, base.LinkBytes) {
		t.Error("the checkpoint cadence changed the network outcome")
	}
	// The initial mark, then one per barrier before the crash's.
	if rec := tiny.Recovery; rec.Checkpoints < 2 || rec.Checkpoints <= base.Recovery.Checkpoints {
		t.Errorf("Checkpoints = %d at a 1e-20 s cadence, %d at 1 s: want a mark at every barrier",
			rec.Checkpoints, base.Recovery.Checkpoints)
	}
}

func TestCrashWithoutOnCrashRejected(t *testing.T) {
	sched := &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 1}}}
	_, err := Run(Config{
		Network:    lineNet(),
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   spreadFlows(4, 4),
		Faults:     sched,
	})
	if err == nil {
		t.Fatal("crash schedule without OnMembership accepted")
	}
}

func TestCrashRecoveryBasics(t *testing.T) {
	sched := &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 2}}}
	res, err := Run(Config{
		Network:         lineNet(),
		Assignment:      []int{0, 0, 1, 1},
		NumEngines:      2,
		Workload:        spreadFlows(8, 8),
		Faults:          sched,
		CheckpointEvery: 1,
		OnMembership:    dumpOn(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	if rec == nil {
		t.Fatal("no Recovery report despite a crash schedule")
	}
	if rec.Failures != 1 || len(rec.DeadEngines) != 1 || rec.DeadEngines[0] != 1 {
		t.Errorf("Failures = %d, DeadEngines = %v, want one crash of engine 1",
			rec.Failures, rec.DeadEngines)
	}
	if !rec.Alive[0] || rec.Alive[1] {
		t.Errorf("Alive = %v, want engine 0 alive, engine 1 dead", rec.Alive)
	}
	if rec.Checkpoints < 2 {
		t.Errorf("Checkpoints = %d, want >= 2 (initial + at least one barrier)", rec.Checkpoints)
	}
	if rec.Migrations != 2 {
		t.Errorf("Migrations = %d, want 2 (r1 and h1 moved)", rec.Migrations)
	}
	if rec.Downtime <= 0 {
		t.Errorf("Downtime = %v, want > 0", rec.Downtime)
	}
	if rec.ReplayedEvents <= 0 {
		t.Errorf("ReplayedEvents = %d, want > 0", rec.ReplayedEvents)
	}
	for v, e := range res.FinalAssignment {
		if e == 1 {
			t.Errorf("node %d still on dead engine 1 in FinalAssignment", v)
		}
	}
	// Everything ran on the survivor after recovery: all flows still finish.
	for i, fct := range res.FlowFCTs {
		if fct < 0 {
			t.Errorf("flow %d did not complete after recovery", i)
		}
	}
}

func TestCrashRecoveryChargesMatchSingleEngine(t *testing.T) {
	// After recovery every packet is re-emulated somewhere: the total charge
	// of a crashed-and-recovered run equals the fault-free total (the same
	// packets traverse the same hops, only the owners change).
	base, err := Run(Config{
		Network:    lineNet(),
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   spreadFlows(8, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 2}}}
	rec, err := Run(Config{
		Network:         lineNet(),
		Assignment:      []int{0, 0, 1, 1},
		NumEngines:      2,
		Workload:        spreadFlows(8, 8),
		Faults:          sched,
		CheckpointEvery: 1,
		OnMembership:    dumpOn(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Kernel.TotalCharges(), base.Kernel.TotalCharges(); got != want {
		t.Errorf("recovered run total charges = %d, fault-free = %d", got, want)
	}
	if rec.AppTime <= base.AppTime {
		t.Errorf("recovered AppTime %v not above fault-free %v (downtime must dilate)",
			rec.AppTime, base.AppTime)
	}
}

func TestStragglerInflatesCost(t *testing.T) {
	run := func(sched *faults.Schedule) *Result {
		res, err := Run(Config{
			Network:    lineNet(),
			Assignment: []int{0, 0, 1, 1},
			NumEngines: 2,
			Workload:   spreadFlows(8, 8),
			Faults:     sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	slow := run(&faults.Schedule{
		Stragglers: []faults.Straggler{{Engine: 0, From: 0, To: 8, Factor: 10}},
	})
	if slow.EngineBusy[0] <= 5*base.EngineBusy[0] {
		t.Errorf("straggler EngineBusy[0] = %v, base %v: x10 slowdown not applied",
			slow.EngineBusy[0], base.EngineBusy[0])
	}
	if math.Abs(slow.EngineBusy[1]-base.EngineBusy[1]) > 1e-12 {
		t.Errorf("straggler leaked onto engine 1: %v vs %v", slow.EngineBusy[1], base.EngineBusy[1])
	}
	// Kernel-event counts are unchanged — stragglers slow execution, they do
	// not change what is simulated.
	if !reflect.DeepEqual(slow.EngineLoads, base.EngineLoads) {
		t.Errorf("straggler changed loads: %v vs %v", slow.EngineLoads, base.EngineLoads)
	}
}

func TestDegradationInflatesRemoteCost(t *testing.T) {
	run := func(sched *faults.Schedule) *Result {
		res, err := Run(Config{
			Network:    lineNet(),
			Assignment: []int{0, 0, 1, 1},
			NumEngines: 2,
			Workload:   spreadFlows(8, 8),
			Faults:     sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	deg := run(&faults.Schedule{
		Degradations: []faults.Degradation{{From: 0, To: 8, Factor: 50}},
	})
	if base.RemoteEvents == 0 {
		t.Fatal("no remote events in baseline; degradation test needs a cut path")
	}
	var baseBusy, degBusy float64
	for lp := range base.EngineBusy {
		baseBusy += base.EngineBusy[lp]
		degBusy += deg.EngineBusy[lp]
	}
	if degBusy <= baseBusy {
		t.Errorf("degraded total busy %v not above baseline %v", degBusy, baseBusy)
	}
}

func TestFaultedRunDeterminism(t *testing.T) {
	// Identical configs (including a crash) must produce identical metrics,
	// run to run, in parallel mode — recovery is deterministic.
	run := func() *Result {
		sched := &faults.Schedule{
			Crashes:    []faults.Crash{{Engine: 1, At: 2}},
			Stragglers: []faults.Straggler{{Engine: 0, From: 1, To: 3, Factor: 2}},
		}
		res, err := Run(Config{
			Network:         lineNet(),
			Assignment:      []int{0, 0, 1, 1},
			NumEngines:      2,
			Workload:        spreadFlows(8, 8),
			Faults:          sched,
			CheckpointEvery: 1,
			OnMembership:    dumpOn(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.EngineLoads, b.EngineLoads) {
		t.Errorf("EngineLoads differ: %v vs %v", a.EngineLoads, b.EngineLoads)
	}
	if a.AppTime != b.AppTime || a.NetTime != b.NetTime {
		t.Errorf("times differ: app %v/%v net %v/%v", a.AppTime, b.AppTime, a.NetTime, b.NetTime)
	}
	if !reflect.DeepEqual(a.FlowFCTs, b.FlowFCTs) {
		t.Errorf("FCTs differ")
	}
	if !reflect.DeepEqual(a.Recovery, b.Recovery) {
		t.Errorf("Recovery differs: %+v vs %+v", a.Recovery, b.Recovery)
	}
	if !reflect.DeepEqual(a.FinalAssignment, b.FinalAssignment) {
		t.Errorf("FinalAssignment differs")
	}
}

func TestRecoveryImbalanceMetrics(t *testing.T) {
	sched := &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 2}}}
	res, err := Run(Config{
		Network:         lineNet(),
		Assignment:      []int{0, 0, 1, 1},
		NumEngines:      2,
		Workload:        spreadFlows(8, 8),
		Faults:          sched,
		CheckpointEvery: 1,
		OnMembership:    dumpOn(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	// Only one survivor: post-recovery imbalance over the alive subset is 0.
	if rec.PostRecoveryImbalance != 0 {
		t.Errorf("PostRecoveryImbalance = %v, want 0 for a single survivor", rec.PostRecoveryImbalance)
	}
	if rec.PreFailureImbalance < 0 {
		t.Errorf("PreFailureImbalance = %v, want >= 0", rec.PreFailureImbalance)
	}
}
