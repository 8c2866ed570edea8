package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/dist"
	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// faultScenario is a Campus run long enough for a mid-run crash: background
// HTTP plus a compressed GridNPB foreground over 4 engines.
func faultScenario() *Scenario {
	app := apps.DefaultGridNPB()
	app.Duration = 20
	return &Scenario{
		Name:       "campus-faults",
		Network:    topogen.Campus(),
		Engines:    4,
		Background: traffic.DefaultHTTP(20, 3),
		App:        app,
		AppSeed:    1,
		PartSeed:   7,
	}
}

func midRunCrash() *faults.Schedule {
	return &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 8}}}
}

// crashRun runs faultScenario from TOP under sched, checkpointing every 4 s
// and recovering crashes naively when naive is set.
func crashRun(ctx context.Context, sched *faults.Schedule, naive bool) (*Outcome, error) {
	sc := faultScenario()
	sc.Faults, sc.CheckpointEvery, sc.NaiveRecovery = sched, 4, naive
	return sc.Run(ctx, mapping.Top)
}

// TestCrashRecoveryAcceptance is the ISSUE's acceptance scenario: a Campus
// run with one engine crash mid-run recovers onto the survivors, reports
// recovery metrics, and partitioner-based remapping leaves the post-recovery
// load strictly better balanced than the naive dump-on-one-survivor fallback.
func TestCrashRecoveryAcceptance(t *testing.T) {
	remap, err := crashRun(context.Background(), midRunCrash(), false)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := crashRun(context.Background(), midRunCrash(), true)
	if err != nil {
		t.Fatal(err)
	}

	for _, o := range []*Outcome{remap, naive} {
		rec := o.Result.Recovery
		if rec == nil {
			t.Fatal("no recovery report")
		}
		if rec.Failures != 1 || len(rec.DeadEngines) != 1 || rec.DeadEngines[0] != 1 {
			t.Fatalf("recovery = %+v, want one crash of engine 1", rec)
		}
		if rec.Downtime <= 0 || rec.ReplayedEvents <= 0 || rec.Migrations <= 0 {
			t.Errorf("recovery metrics not populated: %+v", rec)
		}
		for v, e := range o.Result.FinalAssignment {
			if e == 1 {
				t.Fatalf("node %d still on dead engine 1", v)
			}
		}
		// Survivors did real post-recovery work.
		if rec.PostRecoveryImbalance < 0 {
			t.Errorf("PostRecoveryImbalance = %v", rec.PostRecoveryImbalance)
		}
	}

	ri := remap.Result.Recovery.PostRecoveryImbalance
	ni := naive.Result.Recovery.PostRecoveryImbalance
	if ri >= ni {
		t.Errorf("remap post-recovery imbalance %.3f not strictly below naive %.3f", ri, ni)
	}
	// The naive dump concentrates everything on one survivor; remapping
	// spreads it, so it must also move at least as many nodes as the dead
	// engine owned (both did) while balancing better.
	t.Logf("post-recovery imbalance: remap=%.3f naive=%.3f (downtime %.3fs vs %.3fs, migrations %d vs %d)",
		ri, ni,
		remap.Result.Recovery.Downtime, naive.Result.Recovery.Downtime,
		remap.Result.Recovery.Migrations, naive.Result.Recovery.Migrations)
}

func TestResilientDeterminism(t *testing.T) {
	// Same seeds and config give byte-identical results across runs — both
	// fault-free (crash-free schedule) and with a crash recovery in the
	// middle.
	run := func(sched *faults.Schedule) *Outcome {
		out, err := crashRun(context.Background(), sched, false)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	check := func(label string, a, b *Outcome) {
		t.Helper()
		if !reflect.DeepEqual(a.Assignment, b.Assignment) {
			t.Errorf("%s: initial assignments differ", label)
		}
		if !reflect.DeepEqual(a.Result.FinalAssignment, b.Result.FinalAssignment) {
			t.Errorf("%s: final assignments differ", label)
		}
		ra, rb := a.Result, b.Result
		if !reflect.DeepEqual(ra.EngineLoads, rb.EngineLoads) {
			t.Errorf("%s: engine loads differ: %v vs %v", label, ra.EngineLoads, rb.EngineLoads)
		}
		if ra.Imbalance != rb.Imbalance || ra.AppTime != rb.AppTime || ra.NetTime != rb.NetTime {
			t.Errorf("%s: metrics differ: imb %v/%v app %v/%v net %v/%v", label,
				ra.Imbalance, rb.Imbalance, ra.AppTime, rb.AppTime, ra.NetTime, rb.NetTime)
		}
		if !reflect.DeepEqual(ra.FlowFCTs, rb.FlowFCTs) {
			t.Errorf("%s: FCTs differ", label)
		}
		if !reflect.DeepEqual(ra.Recovery, rb.Recovery) {
			t.Errorf("%s: recovery reports differ: %+v vs %+v", label, ra.Recovery, rb.Recovery)
		}
	}

	// Fault-free: a schedule with only a straggler (no crashes, no recovery).
	calm := &faults.Schedule{
		Stragglers: []faults.Straggler{{Engine: 0, From: 2, To: 6, Factor: 3}},
	}
	check("fault-free", run(calm), run(calm))
	check("crash", run(midRunCrash()), run(midRunCrash()))
}

func TestNaiveRecoveryPicksLeastLoaded(t *testing.T) {
	f := emu.MembershipChange{
		Dead:     1,
		Previous: []int{0, 1, 1, 2, 3},
		Engines:  []int{0, 2, 3},
		Loads:    []float64{50, 0, 10, 30},
	}
	next, err := NaiveRecovery(f)
	if err != nil {
		t.Fatal(err)
	}
	for v, e := range f.Previous {
		if e == f.Dead {
			if next[v] != 2 {
				t.Errorf("node %d moved to %d, want least-loaded survivor 2", v, next[v])
			}
		} else if next[v] != e {
			t.Errorf("node %d moved without reason: %d -> %d", v, e, next[v])
		}
	}
}

func TestDefaultMigrationCostShared(t *testing.T) {
	// The recovery and dynamic-remap paths must price migrations identically.
	if DefaultMigrationCost != 50e-3 {
		t.Errorf("DefaultMigrationCost = %v, want 50e-3", DefaultMigrationCost)
	}
}

// TestCrashRunFromProfile: a PROFILE run under a crash schedule profiles the
// network without the crash, and its main run recovers it.
func TestCrashRunFromProfile(t *testing.T) {
	sc := faultScenario()
	sc.Faults = midRunCrash()
	o, err := sc.Run(context.Background(), mapping.Profile)
	if err != nil {
		t.Fatal(err)
	}
	_, pre, err := sc.Partition(context.Background(), mapping.Profile)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Recovery != nil {
		t.Errorf("the profiling pre-run recovered a crash: %+v", pre.Recovery)
	}
	if rec := o.Result.Recovery; rec == nil || rec.Failures != 1 {
		t.Errorf("the main run's recovery is %+v, want one crash", rec)
	}
}

// TestCrashRunTraced: Scenario.Trace records a crash-recovery run's windows
// past the crash, and tracing leaves the run's canonical result unchanged.
func TestCrashRunTraced(t *testing.T) {
	plain, err := crashRun(context.Background(), midRunCrash(), false)
	if err != nil {
		t.Fatal(err)
	}
	sc := faultScenario()
	sc.Faults, sc.CheckpointEvery, sc.Trace = midRunCrash(), 4, obs.NewTimeline()
	traced, err := sc.Run(context.Background(), mapping.Top)
	if err != nil {
		t.Fatal(err)
	}
	crash, last := midRunCrash().Crashes[0].At, 0.0
	for _, s := range sc.Trace.Spans() {
		last = max(last, s.End)
	}
	if last <= crash {
		t.Errorf("the timeline ends at t=%g, not past the crash at t=%g", last, crash)
	}
	want, err := dist.ResultJSON(plain.Result)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := dist.ResultJSON(traced.Result); err != nil || !bytes.Equal(got, want) {
		t.Errorf("tracing changed the crash run's canonical result (%v)", err)
	}
}
