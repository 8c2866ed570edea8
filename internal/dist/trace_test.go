package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// tracedInProcess runs the scenario in-process and returns the canonical
// trace projection.
func tracedInProcess(t *testing.T, topology string) []byte {
	t.Helper()
	sc := scenario(t, topology)
	tl := obs.NewTimeline()
	sc.Trace = tl
	if _, err := sc.Run(context.Background(), mapping.Top); err != nil {
		t.Fatalf("in-process traced run: %v", err)
	}
	return tl.CanonicalJSON()
}

// tracedLoopback runs the scenario over loopback workers and returns the
// canonical projection of the coordinator's merged timeline.
func tracedLoopback(t *testing.T, topology string, workers int) []byte {
	t.Helper()
	ctx := context.Background()
	conns, drain := startLoopbackWorkers(ctx, workers)
	sc := scenario(t, topology)
	tl := obs.NewTimeline()
	sc.Trace = tl
	if _, err := sc.Run(ctx, mapping.Top, core.OnWorkers(conns, dist.Options{})); err != nil {
		t.Fatalf("distributed traced run: %v", err)
	}
	for i, werr := range drain() {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	return tl.CanonicalJSON()
}

// TestDistributedTraceMatchesInProcess is the tracing determinism contract:
// the canonical projection of the merged cluster timeline — virtual-time
// bounds and modeled busy per compute span — is byte-identical whether the
// scenario runs in one process or spread over workers, for any worker count.
func TestDistributedTraceMatchesInProcess(t *testing.T) {
	cases := []struct {
		topology string
		workers  int
	}{
		{"Campus", 2},
		{"Campus", 3}, // one engine per worker
		{"TeraGrid", 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s-%dw", tc.topology, tc.workers), func(t *testing.T) {
			t.Parallel()
			want := tracedInProcess(t, tc.topology)
			if len(want) == 0 {
				t.Fatal("empty canonical trace proves nothing")
			}
			got := tracedLoopback(t, tc.topology, tc.workers)
			if !bytes.Equal(want, got) {
				t.Fatalf("distributed trace diverges from in-process (%d vs %d bytes):\nin-process: %.400s\ndistributed: %.400s",
					len(want), len(got), want, got)
			}
		})
	}
}

// TestDistributedTraceTCPMatchesLoopback: the transports must also be
// interchangeable for the trace plane, not just the result path.
func TestDistributedTraceTCPMatchesLoopback(t *testing.T) {
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
	sc := scenario(t, "Campus")
	tl := obs.NewTimeline()
	sc.Trace = tl
	if _, err := sc.Run(ctx, mapping.Top, core.OnWorkers(conns, dist.Options{})); err != nil {
		t.Fatalf("distributed over TCP: %v", err)
	}
	for i := 0; i < workers; i++ {
		if werr := <-werrs; werr != nil {
			t.Fatalf("tcp worker %d: %v", i, werr)
		}
	}
	if !bytes.Equal(tl.CanonicalJSON(), tracedLoopback(t, "Campus", workers)) {
		t.Fatal("TCP and loopback transports produced different canonical traces")
	}
}

// shareFromMetrics extracts massf_worker_critical_path_share{worker="N"}
// from a Prometheus text exposition.
func shareFromMetrics(t *testing.T, body string, worker int) float64 {
	t.Helper()
	prefix := fmt.Sprintf(`massf_worker_critical_path_share{worker="%d"} `, worker)
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix), 64)
			if err != nil {
				t.Fatalf("unparseable share line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no %s in /metrics:\n%s", prefix, body)
	return 0
}

// TestElasticStragglerTraceAndHealth is the end-to-end acceptance check: a
// 3-worker elastic run with a 12x straggler schedule on worker 1's engine
// must (a) produce a Perfetto-loadable trace whose barrier-wait spans show
// the other workers gated on it, (b) attribute the majority of the critical
// path to worker 1 in the timeline, and (c) surface that attribution on the
// /metrics and /healthz cluster-health endpoints.
func TestElasticStragglerTraceAndHealth(t *testing.T) {
	ctx := context.Background()
	const workers = 3 // Campus has 3 engines: one per slot, slot 1 = engine 1

	conns := make([]dist.Conn, workers)
	ws := make([]*elasticWorker, workers)
	for i := range conns {
		c, s := dist.Loopback()
		conns[i] = c
		ws[i] = startElasticWorker(ctx, s)
	}

	sc := scenario(t, "Campus")
	sc.Faults = &faults.Schedule{Stragglers: []faults.Straggler{
		{Engine: 1, From: 0, To: 1e9, Factor: 12},
	}}
	tl := obs.NewTimeline()
	sc.Trace = tl
	health := telemetry.NewClusterHealth()
	sc.ClusterHealth = health

	o, err := sc.Run(ctx, mapping.Top, core.Elastic(conns, dist.ElasticOptions{
		Options: dist.Options{CheckpointEvery: elasticCkpt},
	}))
	if err != nil {
		t.Fatalf("elastic straggler run: %v", err)
	}
	for i, w := range ws {
		w.wait(t, fmt.Sprintf("worker %d", i))
	}
	if o.Result.Kernel.TotalCharges() == 0 {
		t.Fatal("empty run proves nothing")
	}

	// (b) Timeline attribution: worker 1 holds the majority of the critical
	// path and the others wait for it at barriers.
	var slowShare float64
	for _, h := range tl.Health() {
		if h.Worker == 1 {
			slowShare = h.Share
			if h.GatedWindows == 0 {
				t.Error("straggler worker gated no windows")
			}
		}
	}
	if slowShare < 0.5 {
		t.Errorf("straggler critical-path share %.2f < 0.5", slowShare)
	}
	gatedByOther := false
	for _, s := range tl.Spans() {
		if s.Kind == obs.SpanBarrier && s.Worker != 1 && s.Busy > 0 {
			gatedByOther = true
			break
		}
	}
	if !gatedByOther {
		t.Error("no barrier-wait spans show workers gated on the straggler")
	}

	// (a) The trace export is valid trace_event JSON with events on worker
	// 1's track.
	var buf bytes.Buffer
	if err := tl.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	var computeOnSlow, barriers int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch {
		case ev.Name == "compute" && ev.Pid == 1:
			computeOnSlow++
		case ev.Name == "barrier-wait":
			barriers++
		}
	}
	if computeOnSlow == 0 || barriers == 0 {
		t.Errorf("trace export lacks the straggler story: %d compute events on worker 1, %d barrier-waits",
			computeOnSlow, barriers)
	}

	// (c) Cluster-health endpoints carry the same attribution.
	mux := http.NewServeMux()
	telemetry.MountCluster(nil, health)(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := shareFromMetrics(t, rec.Body.String(), 1); got < 0.5 {
		t.Errorf("/metrics critical-path share for worker 1 = %g, want >= 0.5", got)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var hz struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		Windows int64  `json:"windows"`
		Detail  []struct {
			Worker int     `json:"worker"`
			Gated  int64   `json:"gated_windows"`
			Share  float64 `json:"critical_path_share"`
		} `json:"worker_detail"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatalf("/healthz is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if hz.Status != "ok" || hz.Workers != workers || hz.Windows == 0 {
		t.Errorf("/healthz summary = %+v, want ok/%d workers/nonzero windows", hz, workers)
	}
	found := false
	for _, d := range hz.Detail {
		if d.Worker == 1 {
			found = true
			if d.Share < 0.5 || d.Gated == 0 {
				t.Errorf("/healthz worker 1 detail = %+v, want majority share and gated windows", d)
			}
		}
	}
	if !found {
		t.Error("/healthz has no row for the straggler worker")
	}
}

// TestElasticChurnStats: the membership churn of an elastic run — a join and
// a drain at the first checkpoint barrier — lands in the run summary
// (Result.Obs) the coordinator's observation plane fills, matching the
// membership record the result carries.
func TestElasticChurnStats(t *testing.T) {
	ctx := context.Background()

	conns := make([]dist.Conn, 2)
	ws := make([]*elasticWorker, 2)
	for i := range conns {
		c, s := dist.Loopback()
		conns[i] = c
		ws[i] = startElasticWorker(ctx, s)
	}
	jc, js := dist.Loopback()
	joiner := startElasticWorker(ctx, js)
	joins := make(chan dist.Conn, 1)
	joins <- jc
	close(ws[0].drain)

	sc := scenario(t, "Campus")
	sc.CollectStats = true
	o, err := sc.Run(ctx, mapping.Top, core.Elastic(conns, dist.ElasticOptions{
		Options: dist.Options{CheckpointEvery: elasticCkpt},
		Joins:   joins,
	}))
	if err != nil {
		t.Fatalf("elastic churn run: %v", err)
	}
	ws[0].wait(t, "drained worker")
	ws[1].wait(t, "worker 1")
	joiner.wait(t, "joiner")

	m, stats := o.Result.Membership, o.Result.Obs
	if m == nil || len(m.Resizes) != 1 {
		t.Fatalf("expected one membership resize, got %+v", m)
	}
	if stats == nil {
		t.Fatal("CollectStats did not attach Result.Obs")
	}
	// The joiner occupied slot 2 (engine 2), the drainer left slot 0.
	if got := sum(stats.Joins); got != 1 || len(stats.Joins) <= 2 || stats.Joins[2] != 1 {
		t.Errorf("RunStats.Joins = %v (sum %d), want exactly engine 2 joining", stats.Joins, got)
	}
	if got := sum(stats.Drains); got != 1 || stats.Drains[0] != 1 {
		t.Errorf("RunStats.Drains = %v (sum %d), want exactly engine 0 draining", stats.Drains, got)
	}
	if got := sum(stats.Kills); got != 0 {
		t.Errorf("clean churn run recorded %d kills: %v", got, stats.Kills)
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// badSpansConn is a hostile worker: it replaces its first SPANS frame with
// one carrying span.
type badSpansConn struct {
	dist.Conn
	span  obs.Span
	fired bool
}

func (c *badSpansConn) Send(f dist.Frame) error {
	if f.Type == dist.MsgSpans && !c.fired {
		c.fired = true
		f.Payload = dist.EncodeSpans([]obs.Span{c.span})
	}
	return c.Conn.Send(f)
}

// hostileSpansWorkers starts two loopback workers, the second sending span in
// place of its first SPANS frame.
func hostileSpansWorkers(ctx context.Context, span obs.Span) []dist.Conn {
	conns := make([]dist.Conn, 2)
	for i := range conns {
		c, s := dist.Loopback()
		if i == 1 {
			s = &badSpansConn{Conn: s, span: span}
		}
		conns[i] = c
		go dist.Serve(ctx, s, dist.WorkerOptions{})
	}
	return conns
}

// TestHostileSpansLoseWorkerTyped: the timeline renders a wall span's fields
// verbatim, so a SPANS frame with a non-finite float, an unknown kind or an
// engine outside [-1, NumEngines) must never reach it — a NaN or +Inf in the
// trace file is not JSON. The sender is declared lost with a typed error
// naming it; with a loss policy configured the run replays in-process and the
// exported trace loads.
func TestHostileSpansLoseWorkerTyped(t *testing.T) {
	engines := distSpec(t).Cfg.NumEngines
	hostile := []struct {
		name string
		span obs.Span
	}{
		{"wall=+Inf", obs.Span{Kind: obs.SpanWireSend, Engine: -1, Wall: math.Inf(1)}},
		{"start=NaN", obs.Span{Kind: obs.SpanWireRecv, Engine: -1, Start: math.NaN()}},
		{"end=-Inf", obs.Span{Kind: obs.SpanCompute, End: math.Inf(-1)}},
		{"kind=200", obs.Span{Kind: 200, Engine: -1}},
		{"engine=-2", obs.Span{Kind: obs.SpanWireRecv, Engine: -2}},
		{"engine=NumEngines", obs.Span{Kind: obs.SpanMigrate, Engine: engines}},
	}
	for _, h := range hostile {
		h := h
		t.Run(h.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			spec := distSpec(t)
			spec.Trace = obs.NewTimeline()
			_, err := dist.Run(ctx, spec, hostileSpansWorkers(ctx, h.span), dist.Options{})
			if !errors.Is(err, dist.ErrWorkerLost) {
				t.Fatalf("want ErrWorkerLost, got %v", err)
			}
			if !strings.Contains(err.Error(), "worker 1") {
				t.Fatalf("error must name the sender, got %v", err)
			}
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc := scenario(t, "Campus")
	sc.Trace = obs.NewTimeline()
	o, err := sc.Run(ctx, mapping.Top, core.OnWorkers(hostileSpansWorkers(ctx, hostile[0].span), dist.Options{}))
	if err != nil {
		t.Fatalf("run with survivor remap: %v", err)
	}
	if o.Result.Recovery == nil {
		t.Fatal("the hostile worker was not lost")
	}
	var buf bytes.Buffer
	if err := sc.Trace.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace export after the recovery is not valid JSON")
	}
}
