package dist

import (
	"crypto/sha256"
	"fmt"
	"math"
	"slices"

	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// Message payload codecs. Every message has an Encode producing a payload
// and a decode validating one; the scenario spec is special — it is encoded
// canonically (node and link insertion order preserved, floats as exact
// bits) so that sha256(spec) is a content hash both sides can compute
// independently: the worker re-encodes the scenario it rebuilt and compares
// hashes, catching both transport corruption and any reconstruction drift.

// Hello opens a worker connection.
type Hello struct {
	Version uint32
}

func (m Hello) Encode() []byte {
	var e encoder
	e.u32(m.Version)
	return e.buf
}

func DecodeHello(b []byte) (Hello, error) {
	d := decoder{buf: b}
	m := Hello{Version: d.u32("hello.version")}
	return m, d.finish()
}

// Assign ships the scenario and the worker's place in the run.
type Assign struct {
	Version  uint32
	WorkerID int
	Workers  int
	// Engines is the worker's engine set, ascending.
	Engines []int
	// Hash is sha256 over Spec.
	Hash [32]byte
	// Spec is the canonical scenario encoding (see EncodeSpec).
	Spec []byte
}

func (m Assign) Encode() []byte {
	var e encoder
	e.u32(m.Version)
	e.u32(uint32(m.WorkerID))
	e.u32(uint32(m.Workers))
	e.ints(m.Engines)
	e.buf = append(e.buf, m.Hash[:]...)
	e.u32(uint32(len(m.Spec)))
	e.buf = append(e.buf, m.Spec...)
	return e.buf
}

func DecodeAssign(b []byte) (Assign, error) {
	d := decoder{buf: b}
	m := Assign{
		Version:  d.u32("assign.version"),
		WorkerID: int(d.u32("assign.worker")),
		Workers:  int(d.u32("assign.workers")),
		Engines:  d.ints("assign.engines"),
	}
	copy(m.Hash[:], d.take(32, "assign.hash"))
	n := d.count(1, "assign.spec")
	m.Spec = append([]byte(nil), d.take(n, "assign.spec")...)
	return m, d.finish()
}

// Ready acknowledges an Assign.
type Ready struct {
	// Hash is the worker's independently recomputed spec hash.
	Hash [32]byte
	// Lookahead is the window width the worker derived — compared bit-for-
	// bit against the coordinator's.
	Lookahead float64
}

func (m Ready) Encode() []byte {
	var e encoder
	e.buf = append(e.buf, m.Hash[:]...)
	e.f64(m.Lookahead)
	return e.buf
}

func DecodeReady(b []byte) (Ready, error) {
	d := decoder{buf: b}
	var m Ready
	copy(m.Hash[:], d.take(32, "ready.hash"))
	m.Lookahead = d.f64("ready.lookahead")
	return m, d.finish()
}

// Vote is the worker's barrier vote. Like every per-window payload it is
// appended to a buffer the sender owns and reuses, not allocated per frame.
type Vote struct {
	Has  bool
	Time float64
}

func (m Vote) Append(b []byte) []byte {
	e := encoder{buf: b}
	e.boolean(m.Has)
	e.f64(m.Time)
	return e.buf
}

func DecodeVote(b []byte) (Vote, error) {
	d := decoder{buf: b}
	m := Vote{Has: d.boolean("vote.has"), Time: d.f64("vote.time")}
	return m, d.finish()
}

// Window commands one window's execution.
type Window struct {
	Start, End float64
}

func (m Window) Append(b []byte) []byte {
	e := encoder{buf: b}
	e.f64(m.Start)
	e.f64(m.End)
	return e.buf
}

func DecodeWindow(b []byte) (Window, error) {
	d := decoder{buf: b}
	m := Window{Start: d.f64("window.start"), End: d.f64("window.end")}
	return m, d.finish()
}

// TextMsg carries MsgError and MsgAbort reasons.
type TextMsg struct{ Text string }

func (m TextMsg) Encode() []byte {
	var e encoder
	e.str(m.Text)
	return e.buf
}

func DecodeText(b []byte) (TextMsg, error) {
	d := decoder{buf: b}
	m := TextMsg{Text: d.str("text")}
	return m, d.finish()
}

// ---- Wire events ----

func encodeWireEvents(e *encoder, evs []emu.WireEvent) {
	e.u32(uint32(len(evs)))
	for _, w := range evs {
		e.f64(w.Time)
		e.u32(uint32(w.Dst))
		e.u32(uint32(w.Src))
		e.u32(uint32(w.SrcIdx))
		e.u8(w.Kind)
		e.u32(uint32(w.Flow))
		e.u32(uint32(w.Hop))
		e.u32(uint32(w.Window))
		e.i64(w.Packets)
		e.i64(w.Bytes)
		e.i64(w.Offset)
	}
}

const wireEventSize = 8 + 4*6 + 1 + 8*3

// decodeWireEvents appends the decoded events to dst, whose storage the
// per-window callers hand back from the previous window.
func decodeWireEvents(d *decoder, dst []emu.WireEvent) []emu.WireEvent {
	n := d.count(wireEventSize, "events.count")
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, emu.WireEvent{
			Time:    d.f64("event.time"),
			Dst:     int32(d.u32("event.dst")),
			Src:     int32(d.u32("event.src")),
			SrcIdx:  int32(d.u32("event.srcIdx")),
			Kind:    d.u8("event.kind"),
			Flow:    int32(d.u32("event.flow")),
			Hop:     int32(d.u32("event.hop")),
			Window:  int32(d.u32("event.window")),
			Packets: d.i64("event.packets"),
			Bytes:   d.i64("event.bytes"),
			Offset:  d.i64("event.offset"),
		})
	}
	return dst
}

// EncodeEvents/DecodeEvents carry MsgEvents payloads, appended to b and to
// dst.
func EncodeEvents(b []byte, evs []emu.WireEvent) []byte {
	e := encoder{buf: b}
	encodeWireEvents(&e, evs)
	return e.buf
}

func DecodeEvents(b []byte, dst []emu.WireEvent) ([]emu.WireEvent, error) {
	d := decoder{buf: b}
	dst = decodeWireEvents(&d, dst)
	return dst, d.finish()
}

// ---- Telemetry partials ----

func encodeHist(e *encoder, h *metrics.Histogram) {
	e.i64s(h.Counts)
	e.i64(h.Count)
	e.f64(h.Sum)
	e.i64(h.NaNCount)
}

func decodeHist(d *decoder) *metrics.Histogram {
	counts := d.i64s("hist.counts")
	h := telemetry.NewRunHistogram()
	if d.err == nil && len(counts) != len(h.Counts) {
		d.fail("hist.layout")
	}
	if d.err == nil {
		copy(h.Counts, counts)
	}
	h.Count = d.i64("hist.count")
	h.Sum = d.f64("hist.sum")
	h.NaNCount = d.i64("hist.nan")
	return h
}

func encodePartial(e *encoder, p *telemetry.Partial) {
	if p == nil {
		e.boolean(false)
		return
	}
	e.boolean(true)
	e.ints(p.Engines)
	e.u32(uint32(len(p.QueueDelay)))
	for i := range p.QueueDelay {
		encodeHist(e, p.QueueDelay[i])
		encodeHist(e, p.FCT[i])
	}
}

func decodePartial(d *decoder) *telemetry.Partial {
	if !d.boolean("partial.present") {
		return nil
	}
	p := &telemetry.Partial{Engines: d.ints("partial.engines")}
	nh := d.count(1, "partial.hists")
	for i := 0; i < nh && d.err == nil; i++ {
		p.QueueDelay = append(p.QueueDelay, decodeHist(d))
		p.FCT = append(p.FCT, decodeHist(d))
	}
	return p
}

// EncodeWindowDone/DecodeWindowDone carry MsgWindowDone payloads. The encoder
// appends to b; the decoder overwrites r reusing its slices (the telemetry
// share, absent except at a measurement-window crossing with telemetry on, is
// decoded fresh), so a coordinator keeping one report per member decodes its
// windows without allocating.
func EncodeWindowDone(b []byte, r *emu.WindowReport) []byte {
	e := encoder{buf: b}
	e.i64s(r.Events)
	e.i64s(r.Charges)
	e.i64s(r.Remote)
	e.i64s(r.Queue)
	encodeWireEvents(&e, r.Outbox)
	encodePartial(&e, r.Telemetry)
	e.boolean(r.State != nil)
	if r.State != nil {
		encodeNetState(&e, r.State)
	}
	return e.buf
}

func DecodeWindowDone(b []byte, r *emu.WindowReport) error {
	d := decoder{buf: b}
	r.Events = d.i64sInto(r.Events, "windowDone.events")
	r.Charges = d.i64sInto(r.Charges, "windowDone.charges")
	r.Remote = d.i64sInto(r.Remote, "windowDone.remote")
	r.Queue = d.i64sInto(r.Queue, "windowDone.queue")
	r.Outbox = decodeWireEvents(&d, r.Outbox[:0])
	r.Telemetry, r.State = decodePartial(&d), nil
	if d.boolean("windowDone.state") {
		st := decodeNetState(&d)
		r.State = &st
	}
	return d.finish()
}

// EncodeSpans/DecodeSpans carry MsgSpans payloads: a worker's buffered
// wall-clock trace spans. Busy never ships (the coordinator derives modeled
// busy from the merged counters itself) and Worker is implied by the sending
// connection; Window is the worker's local window count, which the
// coordinator ignores in favor of its own commit order. DecodeSpans rejects
// what no worker measures — an unknown kind, an engine below -1, a
// non-finite start, end or wall — because the timeline renders these fields
// verbatim into the trace file, where a NaN or +Inf is not JSON.
func EncodeSpans(spans []obs.Span) []byte {
	var e encoder
	e.u32(uint32(len(spans)))
	for _, s := range spans {
		e.u8(uint8(s.Kind))
		e.i64(int64(s.Engine))
		e.i64(s.Window)
		e.f64(s.Start)
		e.f64(s.End)
		e.f64(s.Wall)
	}
	return e.buf
}

func DecodeSpans(b []byte) ([]obs.Span, error) {
	d := decoder{buf: b}
	n := d.count(41, "spans")
	out := make([]obs.Span, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		s := obs.Span{
			Kind:   obs.SpanKind(d.u8("span.kind")),
			Engine: int(d.i64("span.engine")),
			Window: d.i64("span.window"),
			Start:  d.f64("span.start"),
			End:    d.f64("span.end"),
			Wall:   d.f64("span.wall"),
		}
		if d.err == nil && (s.Kind > obs.SpanMigrate || s.Engine < -1 ||
			!finite(s.Start) || !finite(s.End) || !finite(s.Wall)) {
			return nil, fmt.Errorf("dist: SPANS span %d out of range: kind %d, engine %d, start %g, end %g, wall %g",
				i, uint8(s.Kind), s.Engine, s.Start, s.End, s.Wall)
		}
		out = append(out, s)
	}
	return out, d.finish()
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// ---- The scenario spec ----

// Spec is the self-contained scenario a worker rebuilds the emulation from:
// topology, workload, assignment and every numeric knob of the run, plus
// whether telemetry is collected and spans are traced. Functions (OnMembership)
// and crash schedules never ship — EncodeSpec rejects them; straggler and
// degradation schedules do ship (they parameterize the coordinator's cost
// model, and the worker needs them only to round-trip the spec hash).
type Spec struct {
	Cfg emu.Config
	// Telemetry tells the worker to run a collector so its share of the
	// traffic plane can be merged at each barrier.
	Telemetry bool
	// Tracing tells the worker to measure wall-clock spans (window compute,
	// wire, migrate) and ship them in SPANS frames.
	Tracing bool
}

// EncodeSpec canonically encodes a normalized config (emu.NormalizeConfig
// must have been applied). Node and link insertion order is preserved —
// routing tie-breaks depend on it.
func EncodeSpec(s *Spec) ([]byte, error) {
	cfg := &s.Cfg
	if cfg.Network == nil {
		return nil, fmt.Errorf("dist: spec needs a network")
	}
	if cfg.Faults.HasCrashes() || cfg.OnMembership != nil {
		return nil, fmt.Errorf("dist: crash schedules and membership policies do not ship")
	}
	var e encoder
	e.u32(Version)
	nw := cfg.Network
	e.str(nw.Name)
	e.u32(uint32(len(nw.Nodes)))
	for _, n := range nw.Nodes {
		e.u8(uint8(n.Kind))
		e.str(n.Name)
		e.i64(int64(n.AS))
		e.str(n.Site)
	}
	e.u32(uint32(len(nw.Links)))
	for _, l := range nw.Links {
		e.i64(int64(l.A))
		e.i64(int64(l.B))
		e.f64(l.Bandwidth)
		e.f64(l.Latency)
	}
	w := &cfg.Workload
	e.u32(uint32(len(w.Flows)))
	for _, f := range w.Flows {
		e.i64(int64(f.ID))
		e.i64(int64(f.Src))
		e.i64(int64(f.Dst))
		e.f64(f.Start)
		e.i64(f.Bytes)
		e.str(f.Tag)
	}
	e.ints(w.AppHosts)
	e.f64(w.Duration)

	e.ints(cfg.Assignment)
	e.i64(int64(cfg.NumEngines))
	e.i64(cfg.ChunkBytes)
	e.i64(cfg.MTU)
	e.f64(cfg.Cost.PerEvent)
	e.f64(cfg.Cost.PerRemote)
	e.f64(cfg.Cost.PerWindow)
	e.f64(cfg.BucketWidth)
	e.f64(cfg.EndTime)
	e.i64(int64(cfg.Transport))
	e.f64s(cfg.EngineSpeeds)
	e.i64(cfg.BufferBytes)
	e.f64(cfg.MinLookahead)
	e.f64(cfg.MigrationCost)
	e.boolean(s.Telemetry)
	e.boolean(s.Tracing)
	// Straggler/degradation schedule (crash-free, checked above). Workers
	// never apply it — the cost model runs on the coordinator — but it must
	// round-trip so the spec hash covers the whole scenario.
	var stragglers []faults.Straggler
	var degradations []faults.Degradation
	if cfg.Faults != nil {
		stragglers = cfg.Faults.Stragglers
		degradations = cfg.Faults.Degradations
	}
	e.u32(uint32(len(stragglers)))
	for _, st := range stragglers {
		e.i64(int64(st.Engine))
		e.f64(st.From)
		e.f64(st.To)
		e.f64(st.Factor)
	}
	e.u32(uint32(len(degradations)))
	for _, dg := range degradations {
		e.f64(dg.From)
		e.f64(dg.To)
		e.f64(dg.Factor)
	}
	return e.buf, nil
}

// SpecHash is the content hash both sides compute over the canonical spec
// encoding.
func SpecHash(blob []byte) [32]byte { return sha256.Sum256(blob) }

// DecodeSpec rebuilds the scenario. The returned config's Routes field is
// set to the rebuilt network's shared route oracle.
func DecodeSpec(b []byte) (*Spec, error) {
	d := decoder{buf: b}
	if v := d.u32("spec.version"); d.err == nil && v != Version {
		return nil, fmt.Errorf("dist: spec version %d, this build speaks %d", v, Version)
	}
	nw := netgraph.New(d.str("spec.network.name"))
	nodes := d.count(6, "spec.nodes")
	nw.Grow(nodes, 0)
	for i := 0; i < nodes && d.err == nil; i++ {
		kind := d.u8("spec.node.kind")
		name := d.str("spec.node.name")
		as := int(d.i64("spec.node.as"))
		site := d.str("spec.node.site")
		var id int
		switch netgraph.NodeKind(kind) {
		case netgraph.Router:
			id = nw.AddRouter(name, as)
		case netgraph.Host:
			id = nw.AddHost(name, as)
		default:
			return nil, fmt.Errorf("dist: spec node %d has unknown kind %d", i, kind)
		}
		if site != "" {
			nw.SetSite(id, site)
		}
	}
	links := d.count(24, "spec.links")
	nw.Grow(0, links)
	for i := 0; i < links && d.err == nil; i++ {
		a := int(d.i64("spec.link.a"))
		b2 := int(d.i64("spec.link.b"))
		bw := d.f64("spec.link.bw")
		lat := d.f64("spec.link.lat")
		if a < 0 || a >= nw.NumNodes() || b2 < 0 || b2 >= nw.NumNodes() {
			return nil, fmt.Errorf("dist: spec link %d endpoints (%d,%d) out of range", i, a, b2)
		}
		nw.AddLink(a, b2, bw, lat)
	}
	var wl traffic.Workload
	flows := d.count(40, "spec.flows")
	wl.Flows = slices.Grow(wl.Flows, flows)
	for i := 0; i < flows && d.err == nil; i++ {
		wl.Flows = append(wl.Flows, traffic.Flow{
			ID:    int(d.i64("spec.flow.id")),
			Src:   int(d.i64("spec.flow.src")),
			Dst:   int(d.i64("spec.flow.dst")),
			Start: d.f64("spec.flow.start"),
			Bytes: d.i64("spec.flow.bytes"),
			Tag:   d.str("spec.flow.tag"),
		})
	}
	wl.AppHosts = d.ints("spec.appHosts")
	wl.Duration = d.f64("spec.duration")

	s := &Spec{Cfg: emu.Config{Network: nw, Workload: wl}}
	cfg := &s.Cfg
	cfg.Assignment = d.ints("spec.assignment")
	cfg.NumEngines = int(d.i64("spec.numEngines"))
	cfg.ChunkBytes = d.i64("spec.chunkBytes")
	cfg.MTU = d.i64("spec.mtu")
	cfg.Cost.PerEvent = d.f64("spec.cost.perEvent")
	cfg.Cost.PerRemote = d.f64("spec.cost.perRemote")
	cfg.Cost.PerWindow = d.f64("spec.cost.perWindow")
	cfg.BucketWidth = d.f64("spec.bucketWidth")
	cfg.EndTime = d.f64("spec.endTime")
	cfg.Transport = emu.TransportMode(d.i64("spec.transport"))
	cfg.EngineSpeeds = d.f64s("spec.engineSpeeds")
	cfg.BufferBytes = d.i64("spec.bufferBytes")
	cfg.MinLookahead = d.f64("spec.minLookahead")
	cfg.MigrationCost = d.f64("spec.migrationCost")
	s.Telemetry = d.boolean("spec.telemetry")
	s.Tracing = d.boolean("spec.tracing")
	nst := d.count(32, "spec.stragglers")
	var stragglers []faults.Straggler
	for i := 0; i < nst && d.err == nil; i++ {
		stragglers = append(stragglers, faults.Straggler{
			Engine: int(d.i64("spec.straggler.engine")),
			From:   d.f64("spec.straggler.from"),
			To:     d.f64("spec.straggler.to"),
			Factor: d.f64("spec.straggler.factor"),
		})
	}
	ndg := d.count(24, "spec.degradations")
	var degradations []faults.Degradation
	for i := 0; i < ndg && d.err == nil; i++ {
		degradations = append(degradations, faults.Degradation{
			From:   d.f64("spec.degradation.from"),
			To:     d.f64("spec.degradation.to"),
			Factor: d.f64("spec.degradation.factor"),
		})
	}
	if len(stragglers) > 0 || len(degradations) > 0 {
		cfg.Faults = &faults.Schedule{Stragglers: stragglers, Degradations: degradations}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	cfg.Routes = nw.SharedRouting()
	return s, nil
}
