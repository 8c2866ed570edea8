package emu

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// faultedConfig is the shared crash scenario: engine 1 dies at t=2,
// recovery dumps its nodes onto engine 0.
func faultedConfig() Config {
	return Config{
		Network:         lineNet(),
		Assignment:      []int{0, 0, 1, 1},
		NumEngines:      2,
		Workload:        spreadFlows(8, 8),
		Faults:          &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 2}}},
		CheckpointEvery: 1,
		OnMembership:    dumpOn(0),
	}
}

// TestTraceDeterministicAcrossRuns is the acceptance gate for trace
// determinism: identical scenarios — faulted runs included — must produce
// byte-identical JSONL traces.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"plain-parallel", func() Config {
			return Config{
				Network:    lineNet(),
				Assignment: []int{0, 0, 1, 1},
				NumEngines: 2,
				Workload:   spreadFlows(8, 8),
			}
		}},
		{"faulted-parallel", faultedConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			emit := func() string {
				var buf bytes.Buffer
				tr := obs.NewTrace(&buf)
				if _, err := Run(tc.cfg(), WithRecorder(tr)); err != nil {
					t.Fatal(err)
				}
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			a, b := emit(), emit()
			if a == "" {
				t.Fatal("empty trace")
			}
			if a != b {
				t.Fatalf("identical runs produced different traces:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestRunStatsMatchesRecovery checks that the observability stream reports
// the same recovery picture as the existing Recovery metrics: checkpoint,
// crash, and rollback counts, replayed windows, and per-engine migrations.
func TestRunStatsMatchesRecovery(t *testing.T) {
	res, err := Run(faultedConfig(), WithStats())
	if err != nil {
		t.Fatal(err)
	}
	st, rec := res.Obs, res.Recovery
	if st == nil {
		t.Fatal("WithStats did not attach Result.Obs")
	}
	if rec == nil {
		t.Fatal("no Recovery report despite a crash schedule")
	}
	if st.Checkpoints != int64(rec.Checkpoints) {
		t.Errorf("obs checkpoints = %d, recovery says %d", st.Checkpoints, rec.Checkpoints)
	}
	if st.Crashes != int64(rec.Failures) || st.Rollbacks != int64(rec.Failures) {
		t.Errorf("obs crashes/rollbacks = %d/%d, recovery failures = %d",
			st.Crashes, st.Rollbacks, rec.Failures)
	}
	var migrated int64
	for _, n := range st.MigratedNodes {
		migrated += n
	}
	if got := migrated; got != int64(rec.Migrations) {
		t.Errorf("obs migrations = %d, recovery says %d", got, rec.Migrations)
	}
	// Every node engine 1 owned moved to engine 0: the per-engine breakdown
	// must put all migrations on the surviving destination.
	if st.MigratedNodes[1] != 0 || st.MigratedNodes[0] != int64(rec.Migrations) {
		t.Errorf("MigratedNodes = %v, want all %d on engine 0", st.MigratedNodes, rec.Migrations)
	}
	if rec.ReplayedEvents > 0 && st.ReplayedWindows == 0 {
		t.Errorf("recovery replayed %d events but obs reports 0 replayed windows", rec.ReplayedEvents)
	}
	// One kernel segment per k.Run(): the initial attempt plus one resume.
	if st.Segments != rec.Failures+1 {
		t.Errorf("obs segments = %d, want %d (failures+1)", st.Segments, rec.Failures+1)
	}
}

// TestFaultedRunCountsEachWindowOnce: a crash recovery re-executes nothing, so
// the kernel, the recorder chain, the tracing timeline and telemetry agree on
// how many windows a faulted run executed.
func TestFaultedRunCountsEachWindowOnce(t *testing.T) {
	tl := obs.NewTimeline()
	res, err := Run(faultedConfig(), WithStats(), WithTrace(tl), WithTelemetry(telemetry.New()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil || res.Recovery.Failures != 1 {
		t.Fatalf("Recovery = %+v, want one crash recovered", res.Recovery)
	}
	kernel := res.Kernel.Windows
	if res.Obs.Windows != kernel || tl.Windows() != kernel || res.Telemetry.Windows != kernel {
		t.Errorf("windows: kernel %d, stats %d, timeline %d, telemetry %d — want one count",
			kernel, res.Obs.Windows, tl.Windows(), res.Telemetry.Windows)
	}
}

// TestWithStatsAddsNoRecorder: the run summary rides no recorder chain, so a
// run given only WithStats hands its window records to nobody.
func TestWithStatsAddsNoRecorder(t *testing.T) {
	cfg := telConfig()
	var o runOptions
	o.apply([]Option{WithStats()})
	e, err := prepare(&cfg, &o)
	if err != nil {
		t.Fatal(err)
	}
	if e.rec != nil || e.runStats == nil {
		t.Errorf("WithStats alone: recorder chain %v, summary %v; want no chain and a summary", e.rec, e.runStats)
	}
}

// streamRows is a Recorder that keeps every window's queue row and counts the
// run segments it is told of.
type streamRows struct {
	runs  int
	queue [][]int64
}

func (r *streamRows) RecordRun(obs.RunMeta)     { r.runs++ }
func (r *streamRows) RecordEvent(obs.Event)     {}
func (r *streamRows) RecordWindow(w obs.Window) { r.queue = append(r.queue, slices.Clone(w.Queue)) }

// TestRunStatsIsReadOffTheRun: on a plain, a crashed and an elastic run,
// Result.Obs carries the kernel's own window totals, the segments the
// recorder stream announced, and as MaxQueue the per-engine peak of the queue
// rows that stream delivered.
func TestRunStatsIsReadOffTheRun(t *testing.T) {
	elastic := telConfig()
	elastic.NumEngines, elastic.CheckpointEvery = 3, 3
	elastic.Elastic = []Resize{{At: 4, Engines: []int{0, 1, 2}, Assignment: []int{0, 1, 2, 2}}}
	for _, tc := range []struct {
		name     string
		cfg      Config
		segments int
	}{
		{"plain", telConfig(), 1},
		{"crash", faultedConfig(), 2},
		{"elastic", elastic, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := &streamRows{}
			res, err := Run(tc.cfg, WithRecorder(rows))
			if err != nil {
				t.Fatal(err)
			}
			st, k := res.Obs, res.Kernel
			if st == nil {
				t.Fatal("a recorder did not imply Result.Obs")
			}
			if st.Windows != k.Windows || !slices.Equal(st.Events, k.Events) ||
				!slices.Equal(st.Charges, k.Charges) || !slices.Equal(st.Remote, k.RemoteSends) {
				t.Errorf("Obs windows %d events %v charges %v remote %v; kernel %d %v %v %v",
					st.Windows, st.Events, st.Charges, st.Remote, k.Windows, k.Events, k.Charges, k.RemoteSends)
			}
			if st.Segments != tc.segments || rows.runs != tc.segments || int64(len(rows.queue)) != k.Windows {
				t.Errorf("Obs segments %d, stream %d segments and %d windows; want %d segments and %d windows",
					st.Segments, rows.runs, len(rows.queue), tc.segments, k.Windows)
			}
			peak := make([]int64, tc.cfg.NumEngines)
			for _, q := range rows.queue {
				for lp := range peak {
					peak[lp] = max(peak[lp], q[lp])
				}
			}
			if !slices.Equal(st.MaxQueue, peak) || slices.Max(peak) < 1 {
				t.Errorf("Obs MaxQueue %v, stream peak %v (want equal and some queue seen)", st.MaxQueue, peak)
			}
		})
	}
}

// cancelAfter is a Recorder that cancels a context after n windows — a
// deterministic way to interrupt a run mid-flight.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) RecordRun(obs.RunMeta) {}
func (c *cancelAfter) RecordEvent(obs.Event) {}
func (c *cancelAfter) RecordWindow(obs.Window) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
}

func TestRunContextCancellation(t *testing.T) {
	base := Config{
		Network:    lineNet(),
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   spreadFlows(8, 8),
	}

	// Already-canceled context: rejected before any emulation work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(base, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled run error = %v, want context.Canceled", err)
	}

	// Cancellation mid-run is observed at the next window barrier.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	if _, err := Run(base, WithContext(ctx), WithRecorder(&cancelAfter{n: 2, cancel: cancel})); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-run cancellation error = %v, want context.Canceled", err)
	}

	// A nil-ish context leaves the run unaffected.
	if _, err := Run(base, WithContext(context.Background())); err != nil {
		t.Errorf("background-context run failed: %v", err)
	}
}

func TestErrBadConfigSentinel(t *testing.T) {
	valid := func(edit func(*Config)) Config {
		cfg := Config{Network: lineNet(), NumEngines: 2, Assignment: []int{0, 0, 1, 1}, Workload: spreadFlows(4, 4)}
		edit(&cfg)
		return cfg
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []Config{
		{},                                  // no network
		{Network: lineNet()},                // no engines
		{Network: lineNet(), NumEngines: 2}, // missing assignment
		{Network: lineNet(), NumEngines: 2, // out-of-range assignment
			Assignment: []int{0, 0, 5, 1}},
		{Network: lineNet(), NumEngines: 2, // crashes without OnMembership
			Assignment: []int{0, 0, 1, 1},
			Faults:     &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 1}}}},
		// Non-finite floats: the first three panicked sizing the load series,
		// a 1e-12 s bucket ran the process out of memory, a NaN end time seeded
		// no flow, and NaN costs and speeds dropped out of the per-bucket max.
		valid(func(c *Config) { c.BucketWidth = nan }),
		valid(func(c *Config) { c.Workload.Duration = nan }),
		valid(func(c *Config) { c.Workload.Duration = inf }),
		valid(func(c *Config) { c.Workload.Duration = -inf }),
		valid(func(c *Config) { c.BucketWidth = 1e-12 }),
		valid(func(c *Config) { c.BucketWidth = inf }),
		valid(func(c *Config) { c.EndTime = nan }),
		valid(func(c *Config) { c.Cost.PerEvent = nan }),
		valid(func(c *Config) { c.Cost.PerRemote = -inf }),
		valid(func(c *Config) { c.Cost.PerWindow = inf }),
		valid(func(c *Config) { c.EngineSpeeds = []float64{1, nan} }),
		valid(func(c *Config) { c.EngineSpeeds = []float64{inf, 1} }),
		// A NaN migration cost made AppTime NaN, a NaN resize time was never
		// applied and switched off the ordering check after it, and a NaN
		// crash time was recovered at the first barrier.
		valid(func(c *Config) { c.MigrationCost = nan }),
		valid(func(c *Config) { c.MigrationCost = -inf }),
		valid(func(c *Config) { c.CheckpointEvery = nan }),
		valid(func(c *Config) { c.CheckpointEvery = inf }),
		valid(func(c *Config) {
			c.Elastic = []Resize{{At: nan, Engines: []int{0, 1}}, {At: 1, Engines: []int{0}}}
			c.OnMembership = dumpOn(0)
		}),
		valid(func(c *Config) { c.Elastic = []Resize{{At: inf, Engines: []int{0, 1}, Assignment: []int{0, 0, 1, 1}}} }),
		valid(func(c *Config) {
			c.Faults = &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: nan}}}
			c.OnMembership = dumpOn(0)
		}),
		// A NaN flow start failed in the kernel as an untyped error.
		valid(func(c *Config) { c.Workload.Flows[1].Start = nan }),
	}
	// What the rule leaves alone: an infinite end time cuts nothing, and a
	// speed at or below 0 means 1.
	if _, err := Run(valid(func(c *Config) { c.EndTime, c.EngineSpeeds = inf, []float64{-inf, 1} })); err != nil {
		t.Errorf("an infinite end time and a -Inf speed must run: %v", err)
	}
	for i, cfg := range cases {
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("case %d: invalid config accepted", i)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: error %v does not wrap ErrBadConfig", i, err)
		}
	}
}

// TestConfigCostOverride checks Config.Cost takes effect and that its zero
// fields still default to PentiumIICluster.
func TestConfigCostOverride(t *testing.T) {
	cfg := Config{
		Network:    lineNet(),
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   spreadFlows(4, 4),
	}
	cheap, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cost = CostModel{PerEvent: 10 * PentiumIICluster.PerEvent}
	dear, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dear.NetTime <= cheap.NetTime {
		t.Errorf("10x per-event cost did not raise NetTime: %g vs %g", dear.NetTime, cheap.NetTime)
	}
}

// TestInProcessPeakEngines: an in-process run counts the engine set it
// starts on, so a crash run — which never resizes — and an elastic run that
// shrinks both report at least their starting engines as the peak, and the
// summary never reads "peak cluster 0".
func TestInProcessPeakEngines(t *testing.T) {
	shrink := faultedConfig()
	shrink.Faults, shrink.OnMembership = nil, nil
	shrink.Elastic = []Resize{{At: 3, Engines: []int{0}, Assignment: []int{0, 0, 0, 0}}}
	for name, cfg := range map[string]Config{"crash": faultedConfig(), "elastic shrink": shrink} {
		res, err := Run(cfg, WithStats())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st := res.Obs; st.PeakEngines < 2 {
			t.Errorf("%s: PeakEngines = %d, want at least the 2 engines the run started on", name, st.PeakEngines)
		}
		if s := res.Obs.String(); strings.Contains(s, "peak cluster 0 engine(s)") {
			t.Errorf("%s: Obs.String() = %q", name, s)
		}
	}
}
