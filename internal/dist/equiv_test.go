package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// scenario builds a fresh, fast scenario for one run. Every call returns an
// identically-parameterized scenario so in-process and distributed runs never
// share memoized state.
func scenario(t *testing.T, topology string) *core.Scenario {
	t.Helper()
	sc, err := experiments.ScenarioFor(experiments.Config{Duration: 10, Seed: 42}, topology, "ScaLapack")
	if err != nil {
		t.Fatalf("scenario %s: %v", topology, err)
	}
	sc.CollectTelemetry = true
	return sc
}

// startLoopbackWorkers spawns W in-process workers and returns the
// coordinator-side connections plus a drain function for the workers' exit
// errors.
func startLoopbackWorkers(ctx context.Context, w int) ([]dist.Conn, func() []error) {
	conns := make([]dist.Conn, w)
	errs := make(chan error, w)
	for i := 0; i < w; i++ {
		c, s := dist.Loopback()
		conns[i] = c
		go func() { errs <- dist.Serve(ctx, s, dist.WorkerOptions{}) }()
	}
	return conns, func() []error {
		out := make([]error, w)
		for i := range out {
			out[i] = <-errs
		}
		return out
	}
}

// runDistributed runs the scenario over loopback workers and returns its
// result and its telemetry exposition;
// set, when non-nil, adjusts the scenario first.
func runDistributed(t *testing.T, topology string, a mapping.Approach, workers int, set func(*core.Scenario)) (*emu.Result, string) {
	t.Helper()
	ctx := context.Background()
	conns, drain := startLoopbackWorkers(ctx, workers)
	sc, tel := observedScenario(t, topology)
	if set != nil {
		set(sc)
	}
	o, err := sc.Run(ctx, a, core.OnWorkers(conns, dist.Options{}))
	if err != nil {
		t.Fatalf("distributed %s on %s: %v", a, topology, err)
	}
	for i, werr := range drain() {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	return o.Result, exposition(t, tel)
}

// observedScenario is scenario with a telemetry collector the caller keeps,
// so the run's exposition can be read after it.
func observedScenario(t *testing.T, topology string) (*core.Scenario, *telemetry.Collector) {
	t.Helper()
	sc := scenario(t, topology)
	sc.TelemetryCollector = telemetry.New()
	return sc, sc.TelemetryCollector
}

// exposition renders the collector's /metrics body: every histogram bucket,
// _sum and _count, where the canonical result holds only p50 and p99.
func exposition(t *testing.T, tel *telemetry.Collector) string {
	t.Helper()
	var b strings.Builder
	if err := tel.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func canonical(t *testing.T, r *emu.Result) []byte {
	t.Helper()
	b, err := dist.ResultJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// priced sets every factor the time model prices that the run spec ships: a
// straggler, a cluster-link degradation, engine speeds and a non-default
// cost model.
func priced(sc *core.Scenario) {
	sc.Faults = &faults.Schedule{
		Stragglers:   []faults.Straggler{{Engine: 1, From: 1, To: 6, Factor: 3}},
		Degradations: []faults.Degradation{{From: 3, To: 8, Factor: 4}},
	}
	sc.EngineSpeeds = []float64{1, 0.5, 2}
	sc.Cost = emu.CostModel{PerEvent: 20e-6, PerRemote: 300e-6, PerWindow: 80e-6}
}

// TestDistributedMatchesInProcess is the core fidelity guarantee: a run
// spread over worker processes must produce byte-identical results to the
// same scenario run in-process, whatever the time model is told to price.
func TestDistributedMatchesInProcess(t *testing.T) {
	cases := []struct {
		name     string
		topology string
		workers  int
		set      func(*core.Scenario)
	}{
		{"Campus-2w", "Campus", 2, nil},
		{"Campus-3w", "Campus", 3, nil}, // one engine per worker
		{"TeraGrid-2w", "TeraGrid", 2, nil},
		{"Campus-2w-priced", "Campus", 2, priced},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sc, tel := observedScenario(t, tc.topology)
			if tc.set != nil {
				tc.set(sc)
			}
			inproc, err := sc.Run(context.Background(), mapping.Top)
			if err != nil {
				t.Fatalf("in-process: %v", err)
			}
			distRes, distExp := runDistributed(t, tc.topology, mapping.Top, tc.workers, tc.set)
			want := canonical(t, inproc.Result)
			got := canonical(t, distRes)
			if !bytes.Equal(want, got) {
				t.Fatalf("distributed result diverges from in-process (canonical JSON, %d vs %d bytes):\nin-process: %.600s\ndistributed: %.600s",
					len(want), len(got), want, got)
			}
			if exp := exposition(t, tel); exp != distExp {
				t.Fatalf("distributed exposition diverges from in-process:\nin-process:\n%s\ndistributed:\n%s", exp, distExp)
			}
			if distRes.Kernel.TotalCharges() == 0 {
				t.Fatal("empty run proves nothing")
			}
		})
	}
}

// TestDistributedTCPMatchesLoopback runs the same scenario over real TCP
// sockets and over the in-process loopback transport; the transports must be
// interchangeable.
func TestDistributedTCPMatchesLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test")
	}
	const workers = 2
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	l, err := dist.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	werrs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() { werrs <- dist.DialAndServe(ctx, l.Addr().String(), dist.WorkerOptions{}) }()
	}
	conns := make([]dist.Conn, workers)
	for i := range conns {
		c, err := dist.Accept(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	sc, tel := observedScenario(t, "Campus")
	o, err := sc.Run(ctx, mapping.Top, core.OnWorkers(conns, dist.Options{}))
	if err != nil {
		t.Fatalf("distributed over TCP: %v", err)
	}
	for i := 0; i < workers; i++ {
		if werr := <-werrs; werr != nil {
			t.Fatalf("tcp worker %d: %v", i, werr)
		}
	}
	loopback, loopbackExp := runDistributed(t, "Campus", mapping.Top, workers, nil)
	if !bytes.Equal(canonical(t, o.Result), canonical(t, loopback)) {
		t.Fatal("TCP and loopback transports produced different results")
	}
	if exposition(t, tel) != loopbackExp {
		t.Fatal("TCP and loopback transports produced different expositions")
	}
}

// sinks attaches every sink a run can carry at once — the JSONL recorder, the
// RunStats collector, the telemetry collector (scenario turns it on), the
// tracing timeline and, for a distributed run, the cluster-health plane — so
// one window commit feeds them all.
type sinks struct {
	jsonl  bytes.Buffer
	trace  *obs.Trace
	tl     *obs.Timeline
	health *telemetry.ClusterHealth
}

func attachSinks(sc *core.Scenario, distributed bool) *sinks {
	s := &sinks{tl: obs.NewTimeline()}
	s.trace = obs.NewTrace(&s.jsonl)
	sc.Recorder, sc.CollectStats, sc.Trace = s.trace, true, s.tl
	if distributed {
		s.health = telemetry.NewClusterHealth()
		sc.ClusterHealth = s.health
	}
	return s
}

// observed is what the sinks of one run recorded that must not depend on
// where its engines ran.
type observed struct {
	// Result is the canonical result, final telemetry snapshot included.
	Result string
	// JSONL is the recorder stream without its queue depths: a coordinator
	// samples them before the barrier merge, the kernel after (DESIGN.md §11).
	JSONL string
	// Segments to Remote are the deterministic fields of RunStats.
	Segments                int
	Windows                 int64
	Events, Charges, Remote []int64
	// Canonical is Timeline.CanonicalJSON.
	Canonical string
	// Attribution is the timeline's modeled spans — per window the compute
	// span of every active engine and the barrier-wait span of every worker
	// but the gating one, i.e. the window's WindowStat spelled out (gating
	// worker, its busy seconds, its lead) — and Health their per-worker
	// totals. Both name workers, so they are comparable only between runs
	// that seat one engine per worker, as in-process does.
	Attribution []obs.Span
	Health      []obs.WorkerHealth
}

var queueDepths = regexp.MustCompile(`,"queue":\[[^\]]*\]`)

func (s *sinks) observed(t *testing.T, r *emu.Result) observed {
	t.Helper()
	if err := s.trace.Flush(); err != nil {
		t.Fatal(err)
	}
	st := r.Obs
	if st == nil || r.Telemetry == nil {
		t.Fatalf("run lost a sink: stats %v, telemetry %v", st, r.Telemetry)
	}
	o := observed{
		Result:    string(canonical(t, r)),
		JSONL:     queueDepths.ReplaceAllString(s.jsonl.String(), ""),
		Segments:  st.Segments,
		Windows:   st.Windows,
		Events:    st.Events,
		Charges:   st.Charges,
		Remote:    st.Remote,
		Canonical: string(s.tl.CanonicalJSON()),
		Health:    s.tl.Health(),
	}
	for _, sp := range s.tl.Spans() {
		if sp.Kind == obs.SpanCompute || sp.Kind == obs.SpanBarrier {
			sp.Wall = 0
			o.Attribution = append(o.Attribution, sp)
		}
	}
	if o.Windows != r.Kernel.Windows || s.tl.Windows() != o.Windows ||
		strings.Count(o.JSONL, `{"type":"window"`) != int(o.Windows) || strings.Count(o.JSONL, `{"type":"run"`) != o.Segments {
		t.Fatalf("sinks disagree on the windows committed: kernel %d, stats %d, timeline %d, JSONL %d (+%d run lines for %d segments)",
			r.Kernel.Windows, o.Windows, s.tl.Windows(),
			strings.Count(o.JSONL, `{"type":"window"`), strings.Count(o.JSONL, `{"type":"run"`), o.Segments)
	}
	if s.health == nil {
		return o
	}
	// The attribution each CommitWindow returned reached the health plane once:
	// its per-worker tallies are the timeline's.
	var doc struct {
		Windows int64
		Detail  []struct {
			Worker            int
			GatedWindows      int64   `json:"gated_windows"`
			CriticalPathShare float64 `json:"critical_path_share"`
		} `json:"worker_detail"`
	}
	var body bytes.Buffer
	if err := s.health.WriteHealthz(&body); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body.Bytes(), &doc); err != nil {
		t.Fatalf("healthz: %v\n%s", err, body.Bytes())
	}
	if doc.Windows != o.Windows || len(doc.Detail) != len(o.Health) {
		t.Fatalf("health plane saw %d windows and %d gating workers, timeline %d and %d",
			doc.Windows, len(doc.Detail), o.Windows, len(o.Health))
	}
	for i, h := range o.Health {
		if d := doc.Detail[i]; d.Worker != h.Worker || d.GatedWindows != h.GatedWindows || d.CriticalPathShare != h.Share {
			t.Errorf("health plane row %+v, timeline %+v", d, h)
		}
	}
	return o
}

// TestStaticAndSteadyElasticMatchInProcess: the coordinator has one window
// loop, and the two ways of dealing engines to workers must not show in the
// result — nor in anything a sink recorded, with every sink attached at once.
// Run deals round-robin over two workers (an uneven split: Campus is 3
// engines, TeraGrid 5); RunElastic at full capacity with no joins or drains
// deals one block per worker. Both must equal the in-process bytes, and the
// one-engine-per-worker elastic run the in-process straggler attribution too.
func TestStaticAndSteadyElasticMatchInProcess(t *testing.T) {
	for _, topology := range []string{"Campus", "TeraGrid"} {
		topology := topology
		t.Run(topology, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			sc := scenario(t, topology)
			sk := attachSinks(sc, false)
			inproc, err := sc.Run(ctx, mapping.Top)
			if err != nil {
				t.Fatalf("in-process: %v", err)
			}
			want := sk.observed(t, inproc.Result)
			if len(want.Health) < 2 || len(want.Attribution) <= int(want.Windows) {
				t.Fatalf("degenerate run: %d gating engines, %d spans over %d windows",
					len(want.Health), len(want.Attribution), want.Windows)
			}
			check := func(shape string, got observed, perWorker bool) {
				t.Helper()
				if want.Result != got.Result {
					t.Fatalf("%s run diverges from in-process:\nin-process: %.600s\n%s: %.600s", shape, want.Result, shape, got.Result)
				}
				if !perWorker {
					got.Attribution, got.Health = want.Attribution, want.Health
				}
				if want.JSONL != got.JSONL {
					t.Errorf("%s run: recorder JSONL diverges from in-process", shape)
				}
				if want.Canonical != got.Canonical {
					t.Errorf("%s run: canonical timeline diverges from in-process", shape)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s run: RunStats or attribution diverge from in-process:\n got %d segments %d windows ev=%v ch=%v rm=%v health=%+v\nwant %d segments %d windows ev=%v ch=%v rm=%v health=%+v",
						shape, got.Segments, got.Windows, got.Events, got.Charges, got.Remote, got.Health,
						want.Segments, want.Windows, want.Events, want.Charges, want.Remote, want.Health)
				}
			}

			sc = scenario(t, topology)
			sk = attachSinks(sc, true)
			conns, drain := startLoopbackWorkers(ctx, 2)
			o, err := sc.Run(ctx, mapping.Top, core.OnWorkers(conns, dist.Options{}))
			if err != nil {
				t.Fatalf("round-robin static run: %v", err)
			}
			for i, werr := range drain() {
				if werr != nil {
					t.Fatalf("static worker %d: %v", i, werr)
				}
			}
			check("round-robin static", sk.observed(t, o.Result), false)

			sc = scenario(t, topology)
			if sc.Engines%2 == 0 {
				t.Fatalf("%s has %d engines; the static case must split unevenly over 2 workers", topology, sc.Engines)
			}
			sk = attachSinks(sc, true)
			conns, drain = startLoopbackWorkers(ctx, sc.Engines)
			o, err = sc.Run(ctx, mapping.Top, core.Elastic(conns, dist.ElasticOptions{}))
			if err != nil {
				t.Fatalf("steady elastic run: %v", err)
			}
			for i, werr := range drain() {
				if werr != nil {
					t.Fatalf("elastic worker %d: %v", i, werr)
				}
			}
			if len(o.Membership.Resizes)+len(o.Membership.Losses) != 0 {
				t.Fatalf("steady run changed membership: %+v", o.Membership)
			}
			check("block-dealt steady elastic", sk.observed(t, o.Result), true)
		})
	}
}

// flakyConn injects a connection failure after the coordinator has commanded
// a number of windows — a worker process dying mid-run, as seen from the
// coordinator's side of the socket.
type flakyConn struct {
	dist.Conn
	windows   int
	failAfter int
}

var errInjectedLink = errors.New("injected link failure")

func (f *flakyConn) Send(fr dist.Frame) error {
	if fr.Type == dist.MsgWindow {
		f.windows++
		if f.windows > f.failAfter {
			return errInjectedLink
		}
	}
	return f.Conn.Send(fr)
}

// TestWorkerLossDegradesToRecovery kills a worker mid-run and requires the
// run to complete — deadline-bounded — through the crash-recovery remap path
// instead of hanging or failing. The replay's summary carries the kill the
// coordinator recorded before it started.
func TestWorkerLossDegradesToRecovery(t *testing.T) {
	done := make(chan *core.Outcome, 1)
	fail := make(chan error, 1)
	go func() {
		ctx := context.Background()
		conns, _ := startLoopbackWorkers(ctx, 2)
		conns[1] = &flakyConn{Conn: conns[1], failAfter: 3}
		sc := scenario(t, "Campus")
		sc.CollectStats = true
		o, err := sc.Run(ctx, mapping.Top, core.OnWorkers(conns, dist.Options{}))
		if err != nil {
			fail <- err
			return
		}
		done <- o
	}()
	select {
	case err := <-fail:
		t.Fatalf("worker loss must degrade, not fail the run: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("worker loss wedged the run (deadline exceeded)")
	case o := <-done:
		rec := o.Result.Recovery
		if rec == nil {
			t.Fatal("degraded run must report Recovery")
		}
		if rec.Failures == 0 {
			t.Fatal("the lost worker's engines were never fail-stopped")
		}
		if o.Result.Kernel.TotalCharges() == 0 {
			t.Fatal("degraded run produced an empty result")
		}
		// Worker 1 is dealt engine 1 first; its kill is counted there.
		st := o.Result.Obs
		if st == nil {
			t.Fatal("CollectStats run has no Obs summary")
		}
		want := make([]int64, len(st.Kills))
		want[1] = 1
		if !slices.Equal(st.Kills, want) {
			t.Errorf("Obs.Kills = %v, want %v", st.Kills, want)
		}
		if s := st.String(); !strings.Contains(s, "1 kill(s)") || !strings.Contains(s, "peak cluster 3 engine(s)") {
			t.Errorf("Obs.String() = %q, want 1 kill(s) and the 3 engines the run started on", s)
		}
		// The lost worker owned engines 1 (and 3, 5, ... if any); recovery
		// must have remapped onto survivors: final assignment avoids them.
		for v, e := range o.Result.FinalAssignment {
			for _, dead := range rec.DeadEngines {
				if e == dead {
					t.Fatalf("node %d still assigned to dead engine %d", v, e)
				}
			}
		}
	}
}

// failSendConn cuts the coordinator→worker link at the first frame of a type.
type failSendConn struct {
	dist.Conn
	typ dist.MsgType
}

func (f *failSendConn) Send(fr dist.Frame) error {
	if fr.Type == f.typ {
		return errInjectedLink
	}
	return f.Conn.Send(fr)
}

// TestStaticLossBeforeFirstWindowDegrades: a worker of a static run dying in
// the handshake — before any window exists to date the loss by — degrades
// through the same fallback as every other loss, fail-stopping exactly the
// engines the round-robin deal gave that worker.
func TestStaticLossBeforeFirstWindowDegrades(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	conns, _ := startLoopbackWorkers(ctx, 2)
	conns[1] = &failSendConn{Conn: conns[1], typ: dist.MsgAssign}
	sc := scenario(t, "TeraGrid") // 5 engines: worker 1 owns engines 1 and 3
	o, err := sc.Run(ctx, mapping.Top, core.OnWorkers(conns, dist.Options{}))
	if err != nil {
		t.Fatalf("worker loss must degrade, not fail the run: %v", err)
	}
	rec := o.Result.Recovery
	if rec == nil {
		t.Fatal("degraded run must report Recovery")
	}
	if !reflect.DeepEqual(rec.DeadEngines, []int{1, 3}) {
		t.Fatalf("DeadEngines = %v, want worker 1's round-robin engines [1 3]", rec.DeadEngines)
	}
	for v, e := range o.Result.FinalAssignment {
		if e == 1 || e == 3 {
			t.Fatalf("node %d still assigned to dead engine %d", v, e)
		}
	}
	if o.Result.Kernel.TotalCharges() == 0 {
		t.Fatal("degraded run produced an empty result")
	}
}

// TestCoordinatorRejectsBadShapes covers the cheap validation paths.
func TestCoordinatorRejectsBadShapes(t *testing.T) {
	if _, err := dist.Run(context.Background(), &dist.RunSpec{}, nil, dist.Options{}); err == nil {
		t.Fatal("no workers must be rejected")
	}
	sc := scenario(t, "Campus")
	part, _, err := sc.Partition(context.Background(), mapping.Top)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.Workload()
	if err != nil {
		t.Fatal(err)
	}
	cfg := emu.Config{
		Network: sc.Network, Assignment: part, NumEngines: sc.Engines, Workload: w,
	}
	// More workers than engines: someone would idle with zero engines.
	many := make([]dist.Conn, sc.Engines+1)
	for i := range many {
		c, s := dist.Loopback()
		many[i] = c
		_ = s
	}
	if _, err := dist.Run(context.Background(), &dist.RunSpec{Cfg: cfg}, many, dist.Options{}); err == nil {
		t.Fatal("more workers than engines must be rejected")
	}
	// Cfg.OnMembership must not be set on a distributed spec.
	cfg.OnMembership = func(emu.MembershipChange) ([]int, error) { return nil, nil }
	one := make([]dist.Conn, 1)
	one[0], _ = dist.Loopback()
	if _, err := dist.Run(context.Background(), &dist.RunSpec{Cfg: cfg}, one, dist.Options{}); err == nil {
		t.Fatal("Cfg.OnMembership must be rejected")
	}
}
