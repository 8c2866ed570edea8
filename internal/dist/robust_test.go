package dist_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/emu"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// TestDialNeverListeningReturnsCtxErr: an address nobody ever listens on must
// not retry forever — the backoff is capped at the context deadline and the
// dial returns the context's error promptly.
func TestDialNeverListeningReturnsCtxErr(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // the port is now dead: every dial gets refused

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = dist.Dial(ctx, addr)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial of a dead address must fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	// "Promptly": the deadline was 400ms; anything past 2s means a retry
	// overshot the deadline instead of being capped by it.
	if elapsed > 2*time.Second {
		t.Fatalf("dial overshot its deadline: %v elapsed for a 400ms context", elapsed)
	}
}

// distSpec builds a minimal valid RunSpec for protocol-level tests that drive
// dist.Run directly with hand-crafted connections.
func distSpec(t *testing.T) *dist.RunSpec {
	t.Helper()
	sc := scenario(t, "Campus")
	part, _, err := sc.Partition(context.Background(), mapping.Top)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.Workload()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := sc.Routes()
	if err != nil {
		t.Fatal(err)
	}
	return &dist.RunSpec{Cfg: emu.Config{
		Network:    sc.Network,
		Routes:     routes,
		Assignment: part,
		NumEngines: sc.Engines,
		Workload:   w,
	}}
}

// errorOnVoteConn makes the worker report a fatal application error in place
// of its first vote — the shape of a worker hitting a deterministic failure
// (bad alloc, assertion) rather than a transport fault.
type errorOnVoteConn struct {
	dist.Conn
	fired bool
}

func (c *errorOnVoteConn) Send(f dist.Frame) error {
	if f.Type == dist.MsgVote && !c.fired {
		c.fired = true
		return c.Conn.Send(dist.Frame{Type: dist.MsgError, Payload: dist.TextMsg{Text: "disk on fire"}.Encode()})
	}
	return c.Conn.Send(f)
}

// TestWorkerErrorFrameAbortsTyped: an ERROR frame is a deterministic worker
// fault — it would recur identically in a recovery replay, so the coordinator
// must abort the run with a typed error naming the worker, not degrade.
func TestWorkerErrorFrameAbortsTyped(t *testing.T) {
	errc := make(chan error, 1)
	go func() {
		ctx := context.Background()
		conns := make([]dist.Conn, 2)
		for i := range conns {
			c, s := dist.Loopback()
			if i == 1 {
				s = &errorOnVoteConn{Conn: s}
			}
			conns[i] = c
			go dist.Serve(ctx, s, dist.WorkerOptions{})
		}
		sc := scenario(t, "Campus")
		_, err := sc.Run(ctx, mapping.Top, core.OnWorkers(conns, dist.Options{}))
		errc <- err
	}()
	select {
	case <-time.After(time.Minute):
		t.Fatal("ERROR frame wedged the coordinator")
	case err := <-errc:
		if err == nil {
			t.Fatal("a worker ERROR must fail the run")
		}
		if !errors.Is(err, dist.ErrWorkerFault) {
			t.Fatalf("want ErrWorkerFault, got %v", err)
		}
		if errors.Is(err, dist.ErrWorkerLost) {
			t.Fatalf("a reported fault is not a lost worker: %v", err)
		}
		if !strings.Contains(err.Error(), "worker 1") || !strings.Contains(err.Error(), "disk on fire") {
			t.Fatalf("error must name the worker and carry its message, got %v", err)
		}
	}
}

// TestTruncatedHelloFailsHandshake: a connection that dies mid-HELLO delivers
// a partial payload; the coordinator must fail the handshake with a decode
// error — typed as a lost worker — instead of stalling.
func TestTruncatedHelloFailsHandshake(t *testing.T) {
	c, s := dist.Loopback()
	go func() {
		h := dist.Hello{Version: dist.Version}.Encode()
		s.Send(dist.Frame{Type: dist.MsgHello, Payload: h[:1]})
	}()
	errc := make(chan error, 1)
	go func() {
		_, err := dist.Run(context.Background(), distSpec(t), []dist.Conn{c}, dist.Options{})
		errc <- err
	}()
	select {
	case <-time.After(30 * time.Second):
		t.Fatal("truncated HELLO stalled the handshake")
	case err := <-errc:
		if err == nil {
			t.Fatal("truncated HELLO must fail the handshake")
		}
		if !errors.Is(err, dist.ErrWorkerLost) {
			t.Fatalf("want ErrWorkerLost, got %v", err)
		}
	}
}

// TestStaleHelloVersionRefused: a worker built one protocol version back
// says so in its HELLO and is refused before anything ships to it.
func TestStaleHelloVersionRefused(t *testing.T) {
	stale := uint32(dist.Version - 1)
	c, s := dist.Loopback()
	go s.Send(dist.Frame{Type: dist.MsgHello, Payload: dist.Hello{Version: stale}.Encode()})
	_, err := dist.Run(context.Background(), distSpec(t), []dist.Conn{c}, dist.Options{})
	if want := fmt.Sprintf("speaks protocol %d, this build speaks %d", stale, dist.Version); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("a v%d HELLO must be refused by version, got %v", stale, err)
	}
}

// TestTruncatedAssignFailsWorker: the worker side of the same cut — a partial
// ASSIGN must surface as a prompt decode error from Serve, not a stall.
func TestTruncatedAssignFailsWorker(t *testing.T) {
	c, s := dist.Loopback()
	errc := make(chan error, 1)
	go func() { errc <- dist.Serve(context.Background(), s, dist.WorkerOptions{}) }()
	if f, err := c.Recv(10 * time.Second); err != nil || f.Type != dist.MsgHello {
		t.Fatalf("expected HELLO from worker, got %v %v", f.Type, err)
	}
	if err := c.Send(dist.Frame{Type: dist.MsgAssign, Payload: []byte{0x01, 0x02}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-time.After(10 * time.Second):
		t.Fatal("truncated ASSIGN stalled the worker")
	case err := <-errc:
		if err == nil {
			t.Fatal("truncated ASSIGN must fail the worker")
		}
	}
}

// TestWorkerRefusesNonFiniteSpec: DecodeSpec copies the scenario's floats as
// they were sent, so an ASSIGN whose spec carries a NaN or infinite duration,
// bucket width, cost, end time, engine speed, migration cost or flow start — or
// a bucket count past netflow.MaxBuckets — must end the worker with a typed
// configuration error before it sizes a series, not with a panic or an
// out-of-memory kill.
func TestWorkerRefusesNonFiniteSpec(t *testing.T) {
	base := distSpec(t).Cfg
	if err := emu.NormalizeConfig(&base); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*emu.Config){
		"NaN bucket width":    func(c *emu.Config) { c.BucketWidth = math.NaN() },
		"tiny bucket width":   func(c *emu.Config) { c.BucketWidth = 1e-12 },
		"+Inf duration":       func(c *emu.Config) { c.Workload.Duration = math.Inf(1) },
		"NaN end time":        func(c *emu.Config) { c.EndTime = math.NaN() },
		"NaN per-event":       func(c *emu.Config) { c.Cost.PerEvent = math.NaN() },
		"NaN speed":           func(c *emu.Config) { c.EngineSpeeds = []float64{1, math.NaN(), 1} },
		"NaN migration cost":  func(c *emu.Config) { c.MigrationCost = math.NaN() },
		"+Inf migration cost": func(c *emu.Config) { c.MigrationCost = math.Inf(1) },
		"+Inf flow start": func(c *emu.Config) {
			c.Workload.Flows = append([]traffic.Flow(nil), c.Workload.Flows...)
			c.Workload.Flows[0].Start = math.Inf(1)
		},
	} {
		cfg := base
		edit(&cfg)
		blob, err := dist.EncodeSpec(&dist.Spec{Cfg: cfg})
		if err != nil {
			t.Fatal(err)
		}
		c, s := dist.Loopback()
		errc := make(chan error, 1)
		go func() { errc <- dist.Serve(context.Background(), s, dist.WorkerOptions{}) }()
		if f, err := c.Recv(10 * time.Second); err != nil || f.Type != dist.MsgHello {
			t.Fatalf("%s: expected HELLO from worker, got %v %v", name, f.Type, err)
		}
		as := dist.Assign{Version: dist.Version, Workers: 1, Engines: []int{0, 1, 2}, Hash: dist.SpecHash(blob), Spec: blob}
		if err := c.Send(dist.Frame{Type: dist.MsgAssign, Payload: as.Encode()}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the worker neither refused nor ran the spec", name)
		case err := <-errc:
			if !errors.Is(err, emu.ErrBadConfig) {
				t.Errorf("%s: worker ended with %v, want emu.ErrBadConfig", name, err)
			}
		}
		c.Close()
	}
}

// TestCoordinatorRefusesNonFiniteCheckpoint: a NaN or infinite
// Options.CheckpointEvery passed the defaulting (<= 0 is false for both), and
// then no membership change ever applied. Run and RunElastic refuse it with a
// typed configuration error before waiting for a single HELLO.
func TestCoordinatorRefusesNonFiniteCheckpoint(t *testing.T) {
	policy := func(emu.MembershipChange) ([]int, error) { return nil, errors.New("never called") }
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		// A handshake would wait for the silent peer past this bound.
		opt := dist.Options{CheckpointEvery: v, HandshakeTimeout: 5 * time.Second}
		var workers, peers []dist.Conn
		for range distSpec(t).Cfg.NumEngines { // a worker per engine: the initial membership is the whole run
			c, s := dist.Loopback()
			workers, peers = append(workers, c), append(peers, s)
		}
		start := time.Now()
		_, err := dist.Run(context.Background(), distSpec(t), workers, opt)
		_, _, elasticErr := dist.RunElastic(context.Background(), distSpec(t), workers,
			dist.ElasticOptions{Options: opt, OnResize: policy})
		for name, err := range map[string]error{"Run": err, "RunElastic": elasticErr} {
			if !errors.Is(err, emu.ErrBadConfig) {
				t.Errorf("%s with CheckpointEvery %g: %v, want emu.ErrBadConfig", name, v, err)
			}
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("CheckpointEvery %g refused after %v: the coordinator waited for a worker first", v, elapsed)
		}
		for i := range workers {
			workers[i].Close()
			peers[i].Close()
		}
	}
}

// TestPeerCloseMidHandshakeErrorsPromptly: the peer vanishing entirely
// mid-handshake must error out of Serve quickly — the close is a signal, not
// a silence to wait out.
func TestPeerCloseMidHandshakeErrorsPromptly(t *testing.T) {
	c, s := dist.Loopback()
	errc := make(chan error, 1)
	go func() { errc <- dist.Serve(context.Background(), s, dist.WorkerOptions{}) }()
	if f, err := c.Recv(10 * time.Second); err != nil || f.Type != dist.MsgHello {
		t.Fatalf("expected HELLO from worker, got %v %v", f.Type, err)
	}
	start := time.Now()
	c.Close()
	select {
	case <-time.After(10 * time.Second):
		t.Fatal("peer close stalled the worker")
	case err := <-errc:
		if err == nil {
			t.Fatal("peer close must fail the worker")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("peer close took %v to surface", elapsed)
		}
	}
}

// badDstConn is a hostile worker: it appends an event addressed to engine dst
// to the outbox of its first window report.
type badDstConn struct {
	dist.Conn
	dst   int32
	fired bool
}

func (c *badDstConn) Send(f dist.Frame) error {
	if f.Type == dist.MsgWindowDone && !c.fired {
		var rep emu.WindowReport
		if err := dist.DecodeWindowDone(f.Payload, &rep); err == nil {
			c.fired = true
			rep.Outbox = append(rep.Outbox, emu.WireEvent{Dst: c.dst})
			f.Payload = dist.EncodeWindowDone(nil, &rep)
		}
	}
	return c.Conn.Send(f)
}

// TestOutOfRangeDstLosesWorkerTyped: an outbox event whose destination engine
// is outside [0, NumEngines) — reachable on the wire, Dst decodes as a signed
// 32-bit value — must not index the coordinator's ownership table. The sender
// is declared lost with a typed error naming it.
func TestOutOfRangeDstLosesWorkerTyped(t *testing.T) {
	spec := distSpec(t)
	for _, dst := range []int32{int32(spec.Cfg.NumEngines), -1} {
		dst := dst
		t.Run(fmt.Sprintf("dst=%d", dst), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			conns := make([]dist.Conn, 2)
			for i := range conns {
				c, s := dist.Loopback()
				if i == 1 {
					s = &badDstConn{Conn: s, dst: dst}
				}
				conns[i] = c
				go dist.Serve(ctx, s, dist.WorkerOptions{})
			}
			_, err := dist.Run(ctx, distSpec(t), conns, dist.Options{})
			if err == nil {
				t.Fatal("an out-of-range destination engine must fail the run")
			}
			if !errors.Is(err, dist.ErrWorkerLost) {
				t.Fatalf("want ErrWorkerLost, got %v", err)
			}
			if !strings.Contains(err.Error(), "worker 1") {
				t.Fatalf("error must name the sender, got %v", err)
			}
		})
	}
}

// grow gives a telemetry share one histogram pair more than it has engines.
func grow(p *telemetry.Partial) bool {
	if p == nil {
		return false
	}
	p.QueueDelay = append(p.QueueDelay, telemetry.NewRunHistogram())
	p.FCT = append(p.FCT, telemetry.NewRunHistogram())
	return true
}

// hostileReportConn is a hostile worker: the first frame of the given type
// that mangle changes (it reports whether it did) goes out changed. A STATE
// frame's telemetry share is ragged by grow.
type hostileReportConn struct {
	dist.Conn
	in     dist.MsgType
	mangle func(*emu.WindowReport) bool
	fired  bool
}

func (c *hostileReportConn) Send(f dist.Frame) error {
	if f.Type != c.in || c.fired {
		return c.Conn.Send(f)
	}
	switch f.Type {
	case dist.MsgWindowDone:
		var rep emu.WindowReport
		if err := dist.DecodeWindowDone(f.Payload, &rep); err == nil && c.mangle(&rep) {
			c.fired = true
			f.Payload = dist.EncodeWindowDone(nil, &rep)
		}
	case dist.MsgState:
		if st, err := dist.DecodeElasticExport(f.Payload); err == nil && grow(st.Telemetry) {
			c.fired = true
			f.Payload = dist.EncodeElasticExport(st)
		}
	}
	return c.Conn.Send(f)
}

// hostileReports are window reports that decode cleanly and do not fit the
// run, each with the error its sender's loss must wrap (nil: ErrWorkerLost
// alone) and whether the run has telemetry on.
var hostileReports = []struct {
	name      string
	telemetry bool
	mangle    func(*emu.WindowReport) bool
	want      error
}{
	{"ragged share", true, func(r *emu.WindowReport) bool { return grow(r.Telemetry) }, telemetry.ErrBadPartial},
	{"long LinkPackets", true, func(r *emu.WindowReport) bool {
		if r.State == nil {
			return false
		}
		r.State.LinkPackets = append(r.State.LinkPackets, 1)
		return true
	}, emu.ErrBadConfig},
	{"flows beside the links", true, func(r *emu.WindowReport) bool {
		if r.State == nil {
			return false
		}
		r.State.Delivered = []int64{0}
		return true
	}, emu.ErrBadConfig},
	{"share without state", true, func(r *emu.WindowReport) bool {
		if r.State == nil {
			return false
		}
		r.State = nil
		return true
	}, telemetry.ErrBadPartial},
	{"state without share", true, func(r *emu.WindowReport) bool {
		if r.Telemetry == nil {
			return false
		}
		r.Telemetry = nil
		return true
	}, telemetry.ErrBadPartial},
	{"another worker's engines", true, func(r *emu.WindowReport) bool {
		if r.Telemetry == nil {
			return false
		}
		for i := range r.Telemetry.Engines {
			r.Telemetry.Engines[i] = 0
		}
		return true
	}, nil},
	{"share on a run without telemetry", false, func(r *emu.WindowReport) bool {
		r.Telemetry = &telemetry.Partial{
			Engines:    []int{99},
			QueueDelay: []*metrics.Histogram{telemetry.NewRunHistogram()},
			FCT:        []*metrics.Histogram{telemetry.NewRunHistogram()},
		}
		return true
	}, telemetry.ErrBadPartial},
}

// TestHostilePartialLosesWorkerTyped: a telemetry share is outside input. A
// report carrying one that does not fit — histograms outnumbering its
// engines, link counters longer than the run's, flow arrays beside the link
// arrays, a share without its state or a state without its share, engines its
// sender does not hold, a share on a run without telemetry — must not index
// the coordinator's collector. The sender is declared lost with a typed error
// naming it, in a window report and in the final state alike, and with a loss
// policy configured the run carries on without it.
func TestHostilePartialLosesWorkerTyped(t *testing.T) {
	run := func(in dist.MsgType, tel bool, mangle func(*emu.WindowReport) bool, onLoss emu.MembershipPolicy) (*emu.Result, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		conns := make([]dist.Conn, 2)
		for i := range conns {
			c, s := dist.Loopback()
			if i == 1 {
				s = &hostileReportConn{Conn: s, in: in, mangle: mangle}
			}
			conns[i] = c
			go dist.Serve(ctx, s, dist.WorkerOptions{})
		}
		spec := distSpec(t)
		if tel {
			spec.Telemetry = telemetry.New()
		}
		spec.OnWorkerLoss = onLoss
		return dist.Run(ctx, spec, conns, dist.Options{})
	}
	check := func(t *testing.T, err, want error) {
		t.Helper()
		if !errors.Is(err, dist.ErrWorkerLost) || want != nil && !errors.Is(err, want) {
			t.Fatalf("want ErrWorkerLost wrapping %v, got %v", want, err)
		}
		if !strings.Contains(err.Error(), "worker 1") {
			t.Fatalf("error must name the sender, got %v", err)
		}
	}
	t.Run(dist.MsgWindowDone.String(), func(t *testing.T) {
		for _, h := range hostileReports {
			t.Run(h.name, func(t *testing.T) {
				_, err := run(dist.MsgWindowDone, h.telemetry, h.mangle, nil)
				check(t, err, h.want)
			})
		}
	})
	t.Run(dist.MsgState.String(), func(t *testing.T) {
		_, err := run(dist.MsgState, true, nil, nil)
		check(t, err, telemetry.ErrBadPartial)
	})
	res, err := run(dist.MsgWindowDone, true, hostileReports[0].mangle, core.NaiveRecovery)
	if err != nil {
		t.Fatalf("with a loss policy the run must survive the hostile worker: %v", err)
	}
	if res.Recovery == nil || res.Recovery.Failures == 0 {
		t.Fatal("the hostile worker's engines were not failed over")
	}
}

// mangledExportConn is a hostile worker: the first export it sends in a frame of
// the given type — STATE at the end of the run, EXPORT at a membership barrier —
// goes through mangle first.
type mangledExportConn struct {
	dist.Conn
	in     dist.MsgType
	mangle func(*emu.ElasticExport)
	fired  bool
}

func (c *mangledExportConn) Send(f dist.Frame) error {
	if f.Type == c.in && !c.fired {
		if ex, err := dist.DecodeElasticExport(f.Payload); err == nil {
			c.fired = true
			c.mangle(ex)
			f.Payload = dist.EncodeElasticExport(ex)
		}
	}
	return c.Conn.Send(f)
}

// hostileExports are exports that decode cleanly and do not fit the run: each
// array cut short in turn, an engine the worker does not hold, a pending event
// for an engine the run does not have.
var hostileExports = []struct {
	name   string
	mangle func(*emu.ElasticExport)
}{
	{"short Events", func(x *emu.ElasticExport) { x.Events = x.Events[:len(x.Events)-1] }},
	{"empty Charges", func(x *emu.ElasticExport) { x.Charges = nil }},
	{"short RemoteSends", func(x *emu.ElasticExport) { x.RemoteSends = x.RemoteSends[:1] }},
	{"short BusyUntil", func(x *emu.ElasticExport) { x.BusyUntil = x.BusyUntil[:len(x.BusyUntil)-1] }},
	{"long LinkBytes", func(x *emu.ElasticExport) { x.LinkBytes = append(x.LinkBytes, 1) }},
	{"empty Drops", func(x *emu.ElasticExport) { x.Drops = nil }},
	{"short Delivered", func(x *emu.ElasticExport) { x.Delivered = x.Delivered[:1] }},
	{"short FCTs", func(x *emu.ElasticExport) { x.FCTs = x.FCTs[:len(x.FCTs)-1] }},
	{"another worker's engine", func(x *emu.ElasticExport) { x.Engines = []int{0} }},
	{"engine out of range", func(x *emu.ElasticExport) { x.Engines = []int{1 << 20} }},
	{"pending event for no engine", func(x *emu.ElasticExport) {
		x.Pending = append(x.Pending, emu.WireEvent{Dst: -1})
	}},
}

// TestHostileStateLosesWorkerTyped: the final export is outside input. One that
// decodes but whose arrays are shorter than the run's used to be indexed before
// anything measured it — a STATE with no kernel counters panicked the
// coordinator at the end of an otherwise finished run. It is measured on
// receipt now: the sender is declared lost with a typed error naming it, and
// with a loss policy the run fails over.
func TestHostileStateLosesWorkerTyped(t *testing.T) {
	run := func(mangle func(*emu.ElasticExport), onLoss emu.MembershipPolicy) (*emu.Result, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		conns := make([]dist.Conn, 2)
		for i := range conns {
			c, s := dist.Loopback()
			if i == 1 {
				s = &mangledExportConn{Conn: s, in: dist.MsgState, mangle: mangle}
			}
			conns[i] = c
			go dist.Serve(ctx, s, dist.WorkerOptions{})
		}
		spec := distSpec(t)
		spec.OnWorkerLoss = onLoss
		return dist.Run(ctx, spec, conns, dist.Options{})
	}
	for _, tc := range hostileExports {
		t.Run(tc.name, func(t *testing.T) {
			_, err := run(tc.mangle, nil)
			if !errors.Is(err, dist.ErrWorkerLost) {
				t.Fatalf("want ErrWorkerLost, got %v", err)
			}
			if !strings.Contains(err.Error(), "worker 1") {
				t.Fatalf("error must name the sender, got %v", err)
			}
		})
	}
	res, err := run(hostileExports[0].mangle, core.NaiveRecovery)
	if err != nil {
		t.Fatalf("with a loss policy the run must survive the hostile worker: %v", err)
	}
	if res.Recovery == nil || res.Recovery.Failures == 0 {
		t.Fatal("the hostile worker's engines were not failed over")
	}
}

// TestHostileExportLosesWorkerTyped: the same at a membership barrier. A member
// whose EXPORT does not fit the run used to abort the whole run with an untyped
// error from the merge; it loses its sender like any other hostile frame, so an
// elastic run — a joiner waits at the first barrier — completes through its loss
// policy.
func TestHostileExportLosesWorkerTyped(t *testing.T) {
	for _, tc := range hostileExports {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			conns := make([]dist.Conn, 2)
			for i := range conns {
				c, s := dist.Loopback()
				if i == 1 {
					s = &mangledExportConn{Conn: s, in: dist.MsgExport, mangle: tc.mangle}
				}
				conns[i] = c
				go dist.Serve(ctx, s, dist.WorkerOptions{})
			}
			jc, js := dist.Loopback()
			go dist.Serve(ctx, js, dist.WorkerOptions{})
			joins := make(chan dist.Conn, 1)
			joins <- jc
			o, err := scenario(t, "Campus").Run(ctx, mapping.Top, core.Elastic(conns, dist.ElasticOptions{
				Options: dist.Options{CheckpointEvery: elasticCkpt},
				Joins:   joins,
			}))
			if err != nil {
				t.Fatalf("a hostile export must lose its sender, not the run: %v", err)
			}
			if len(o.Membership.Losses) == 0 || o.Result.Recovery == nil || o.Result.Recovery.Failures == 0 {
				t.Fatalf("the hostile worker's engines were not failed over: losses %v, recovery %+v",
					o.Membership.Losses, o.Result.Recovery)
			}
		})
	}
}

// TestExportPayloadRefused: the EXPORT command is an empty frame since v9,
// so a worker refuses one that carries a payload — a v8 coordinator's barrier
// time, say — as trailing bytes.
func TestExportPayloadRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	conns := make([]dist.Conn, 2)
	served := make(chan error, 1)
	for i := range conns {
		c, s := dist.Loopback()
		if i == 1 {
			c = &paddedExportConn{Conn: c}
			go func() { served <- dist.Serve(ctx, s, dist.WorkerOptions{}) }()
		} else {
			go dist.Serve(ctx, s, dist.WorkerOptions{})
		}
		conns[i] = c
	}
	jc, js := dist.Loopback()
	go dist.Serve(ctx, js, dist.WorkerOptions{})
	joins := make(chan dist.Conn, 1)
	joins <- jc
	scenario(t, "Campus").Run(ctx, mapping.Top, core.Elastic(conns, dist.ElasticOptions{
		Options: dist.Options{CheckpointEvery: elasticCkpt},
		Joins:   joins,
	}))
	if err := <-served; err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("an EXPORT with a payload must be refused as trailing bytes, got %v", err)
	}
}

// paddedExportConn sends every EXPORT command with a v8 payload: a barrier
// time, 8 zero bytes.
type paddedExportConn struct{ dist.Conn }

func (c *paddedExportConn) Send(f dist.Frame) error {
	if f.Type == dist.MsgExport {
		f.Payload = make([]byte, 8)
	}
	return c.Conn.Send(f)
}

// hostileCoordConn is a hostile coordinator as one worker sees it: it
// rewrites the nth WINDOW command (counting from 0) through window, which also
// sees the previous honest window, and every EVENTS batch after that many
// windows through events.
type hostileCoordConn struct {
	dist.Conn
	nth     int
	window  func(prev, w dist.Window) dist.Window
	events  func(evs []emu.WireEvent) []emu.WireEvent
	windows int
	prev    dist.Window
}

func (c *hostileCoordConn) Send(f dist.Frame) error {
	switch f.Type {
	case dist.MsgWindow:
		if w, err := dist.DecodeWindow(f.Payload); err == nil {
			if c.windows == c.nth && c.window != nil {
				f.Payload = c.window(c.prev, w).Append(nil)
			}
			c.windows++
			c.prev = w
		}
	case dist.MsgEvents:
		if c.windows == c.nth && c.events != nil {
			if evs, err := dist.DecodeEvents(f.Payload, nil); err == nil {
				f.Payload = dist.EncodeEvents(nil, c.events(evs))
			}
		}
	}
	return c.Conn.Send(f)
}

// TestHostileWindowAndPastInjectRejected: a worker checks the time invariants
// of the conservative protocol on what the coordinator tells it instead of
// assuming them. A WINDOW that is not a finite forward step, that is wider
// than the worker's own (handshake-checked) lookahead, or that starts before
// the previous window's end, and an EVENTS batch carrying an event in the
// engine's executed past, are each refused with des.ErrCausality before
// anything runs; the worker reports the fault and the coordinator aborts with
// ErrWorkerFault naming the violation.
func TestHostileWindowAndPastInjectRejected(t *testing.T) {
	cases := []struct {
		name   string
		window func(prev, w dist.Window) dist.Window
		events func(evs []emu.WireEvent) []emu.WireEvent
		names  string
	}{
		{name: "end +Inf", names: "not a finite forward interval",
			window: func(_, w dist.Window) dist.Window { return dist.Window{Start: w.Start, End: math.Inf(1)} }},
		{name: "end NaN", names: "not a finite forward interval",
			window: func(_, w dist.Window) dist.Window { return dist.Window{Start: w.Start, End: math.NaN()} }},
		{name: "end == start", names: "not a finite forward interval",
			window: func(_, w dist.Window) dist.Window { return dist.Window{Start: w.Start, End: w.Start} }},
		{name: "end < start", names: "not a finite forward interval",
			window: func(_, w dist.Window) dist.Window { return dist.Window{Start: w.End, End: w.Start} }},
		{name: "start before the previous end", names: "starts before the previous window's end",
			window: func(prev, _ dist.Window) dist.Window { return prev }},
		{name: "wider than the lookahead", names: "wider than the lookahead",
			window: func(_, w dist.Window) dist.Window {
				return dist.Window{Start: w.Start, End: w.End + (w.End - w.Start)}
			}},
		// Worker 1 of 2 holds engine 1 (engines are dealt round-robin).
		{name: "event in the executed past", names: "before the executed window end",
			events: func(evs []emu.WireEvent) []emu.WireEvent {
				return append(evs, emu.WireEvent{Time: 0, Dst: 1, Kind: emu.WireFlowStart})
			}},
		{name: "event at NaN", names: "before the executed window end",
			events: func(evs []emu.WireEvent) []emu.WireEvent {
				return append(evs, emu.WireEvent{Time: math.NaN(), Dst: 1, Kind: emu.WireFlowStart})
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			conns := make([]dist.Conn, 2)
			served := make(chan error, 1)
			for i := range conns {
				c, s := dist.Loopback()
				if i == 1 {
					c = &hostileCoordConn{Conn: c, nth: 3, window: tc.window, events: tc.events}
					go func() { served <- dist.Serve(ctx, s, dist.WorkerOptions{}) }()
				} else {
					go dist.Serve(ctx, s, dist.WorkerOptions{})
				}
				conns[i] = c
			}
			_, err := dist.Run(ctx, distSpec(t), conns, dist.Options{})
			if !errors.Is(err, dist.ErrWorkerFault) || errors.Is(err, dist.ErrWorkerLost) {
				t.Fatalf("want ErrWorkerFault, got %v", err)
			}
			if !strings.Contains(err.Error(), "worker 1") || !strings.Contains(err.Error(), tc.names) {
				t.Fatalf("error must name the worker and the violation %q, got %v", tc.names, err)
			}
			select {
			case werr := <-served:
				if !errors.Is(werr, des.ErrCausality) {
					t.Fatalf("worker: want des.ErrCausality, got %v", werr)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the refusing worker never returned")
			}
		})
	}
}
