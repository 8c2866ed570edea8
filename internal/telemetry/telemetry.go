// Package telemetry is the traffic-plane observability layer, the companion
// of internal/obs (which watches the kernel plane). Where obs counts kernel
// events and barrier waits, telemetry watches the *traffic* the paper's §3.3
// PROFILE strategy is built on: who sends how much to whom, over which links,
// between which engines — continuously, while the emulation runs.
//
// The Collector is threaded through the emulator's per-packet-group path and
// maintains:
//
//   - a live src-engine × dst-engine byte/packet matrix, republished at every
//     synchronization window barrier,
//   - per-link, per-direction transmitted bytes/packets,
//   - per-engine queue-delay and flow-completion-time histograms,
//   - a measurement-window timeline of load imbalance and cross-engine
//     traffic.
//
// What each node and link *received* — the PROFILE mapping's input — is the
// NetFlow accounting's fact (internal/netflow), not kept a second time here.
//
// Design constraints, matching the obs contract:
//
//   - Zero cost when disabled: a nil *Collector adds no allocations and no
//     measurable work to the per-packet path — every instrumentation site
//     guards on the nil pointer (AllocsPerRun-enforced in emu).
//   - Single-writer hot state: every hot slot is written by exactly one
//     engine goroutine — matrix row e and engine e's instruments by engine
//     e, a link direction's tx slots by the transmitting endpoint's engine —
//     so the per-packet path takes no locks.
//   - Deterministic snapshots derived from virtual time only. Publication
//     happens at window barriers on the coordinating goroutine (engines
//     quiesced), so live HTTP readers only ever see a consistent
//     barrier-time copy; two identical runs publish byte-identical final
//     snapshots.
package telemetry

import (
	"repro/internal/metrics"
	"sync"
)

// Histogram layout shared by the queue-delay and FCT instruments: 1 µs to
// 100 s at 5 log buckets per decade (40 buckets). Sub-microsecond delays
// (including the common zero: an idle transmitter) clamp into bucket 0.
const (
	histLo        = 1e-6
	histHi        = 100
	histPerDecade = 5
)

// Dims sizes a Collector for one emulation run.
type Dims struct {
	// Engines is the number of simulation-engine nodes.
	Engines int
	// Links sizes the virtual topology.
	Links int
	// BucketWidth is the measurement-window granularity in virtual seconds
	// (the paper's fine-grained 2 s interval by default) — the cadence of
	// full publication and of timeline points.
	BucketWidth float64
}

// TrafficPoint is one measurement window of the traffic timeline.
type TrafficPoint struct {
	// Time is the window's end in virtual seconds.
	Time float64 `json:"t"`
	// Imbalance is the normalized standard deviation of the per-engine
	// kernel-event load accrued during this window.
	Imbalance float64 `json:"imbalance"`
	// CrossEngineBytes is the traffic handed between distinct engines during
	// this window; TotalBytes includes intra-engine forwards.
	CrossEngineBytes int64 `json:"crossBytes"`
	TotalBytes       int64 `json:"totalBytes"`
}

// Collector accumulates traffic-plane telemetry during an emulation run.
// Create one with New, hand it to emu.Run via emu.WithTelemetry, and read it
// live or after the run (Snapshot, Metrics). A nil *Collector is a valid
// "disabled" collector for every method the emulator calls.
type Collector struct {
	mu   sync.RWMutex // guards pub and reg value updates against HTTP readers
	pub  published
	reg  *Registry
	inst *instruments

	dims Dims

	runState
}

// runState is everything a run mutates, as one value, so that a crash recovery
// rolls all of it back together: Checkpoint stores a clone and Restore assigns
// one. A field added here is rolled back if clone copies it deeply, and
// TestRunStateRollsBack fails until it does.
type runState struct {
	// Hot state: written by engine goroutines with no synchronization under
	// the single-writer ownership discipline documented in the package
	// comment. Read only at window barriers (engines quiesced) or after the
	// run.
	matrixBytes   []int64 // engines×engines, row-major [src*engines+dst]
	matrixPackets []int64
	linkTxBytes   []int64 // 2×links, [2*link+dir]: transmitted (post-drop)
	linkTxPackets []int64
	queueDelay    []*metrics.Histogram
	fct           []*metrics.Histogram
	flowsDone     []int64 // per engine (destination side)
	drops         []int64 // per engine (transmitting side)

	// Barrier-time accumulators, written only by Commit on the coordinating
	// goroutine.
	windows       int64
	virtualTime   float64
	engineCharges []int64
	bucketCharges []float64
	lastBucket    int
	timeline      []TrafficPoint
	prevCross     int64
	prevTotal     int64
}

// newRunState is the empty state of a run with d's dimensions.
func newRunState(d Dims) runState {
	s := runState{
		matrixBytes:   make([]int64, d.Engines*d.Engines),
		matrixPackets: make([]int64, d.Engines*d.Engines),
		linkTxBytes:   make([]int64, 2*d.Links),
		linkTxPackets: make([]int64, 2*d.Links),
		queueDelay:    make([]*metrics.Histogram, d.Engines),
		fct:           make([]*metrics.Histogram, d.Engines),
		flowsDone:     make([]int64, d.Engines),
		drops:         make([]int64, d.Engines),
		engineCharges: make([]int64, d.Engines),
		bucketCharges: make([]float64, d.Engines),
	}
	for i := range s.queueDelay {
		s.queueDelay[i] = NewRunHistogram()
		s.fct[i] = NewRunHistogram()
	}
	return s
}

// clone returns a copy that shares no storage with s: the scalars ride along
// with the struct copy, every slice and histogram is duplicated.
func (s *runState) clone() runState {
	c := *s
	c.matrixBytes = append([]int64(nil), s.matrixBytes...)
	c.matrixPackets = append([]int64(nil), s.matrixPackets...)
	c.linkTxBytes = append([]int64(nil), s.linkTxBytes...)
	c.linkTxPackets = append([]int64(nil), s.linkTxPackets...)
	c.queueDelay = cloneHists(s.queueDelay)
	c.fct = cloneHists(s.fct)
	c.flowsDone = append([]int64(nil), s.flowsDone...)
	c.drops = append([]int64(nil), s.drops...)
	c.engineCharges = append([]int64(nil), s.engineCharges...)
	c.bucketCharges = append([]float64(nil), s.bucketCharges...)
	c.timeline = append([]TrafficPoint(nil), s.timeline...)
	return c
}

func cloneHists(hs []*metrics.Histogram) []*metrics.Histogram {
	out := make([]*metrics.Histogram, len(hs))
	for i, h := range hs {
		out[i] = h.CloneHistogram()
	}
	return out
}

// published is the barrier-time copy of the hot state the HTTP endpoints
// serve. The matrix and scalars refresh every synchronization window; link
// counters, histograms and the timeline refresh at measurement-window
// boundaries and at Finish.
type published struct {
	sized       bool
	virtualTime float64
	windows     int64

	matrixBytes   []int64
	matrixPackets []int64
	linkTxBytes   []int64
	linkTxPackets []int64
	engineCharges []int64
	queueDelay    *metrics.Histogram
	fct           *metrics.Histogram
	flowsDone     int64
	drops         int64
	timeline      []TrafficPoint
}

// New returns an empty, unsized Collector. The emulator sizes it (Reset) at
// run start; until then snapshots are empty. The registry exists from the
// outset so HTTP endpoints can be mounted before the run begins.
func New() *Collector {
	c := &Collector{reg: NewRegistry()}
	c.inst = newInstruments(c.reg)
	return c
}

// Enabled reports whether the collector is non-nil — the emulator's hot-path
// guard reads (telemetry on at all?), kept as a method for symmetry.
func (c *Collector) Enabled() bool { return c != nil }

// Metrics returns the collector's Prometheus-style registry. Values update at
// measurement-window (BucketWidth) boundaries and at Finish — not every
// synchronization window; Snapshot serves the faster per-window view.
func (c *Collector) Metrics() *Registry { return c.reg }

// Reset sizes the collector for a run and zeroes all state. The emulator
// calls it once at run start; callers reusing one collector across runs (the
// live massf endpoint) get per-run values.
func (c *Collector) Reset(d Dims) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d.BucketWidth <= 0 {
		d.BucketWidth = 2
	}
	c.dims = d
	c.runState = newRunState(d)
	c.pub = published{
		sized:         true,
		matrixBytes:   make([]int64, d.Engines*d.Engines),
		matrixPackets: make([]int64, d.Engines*d.Engines),
		linkTxBytes:   make([]int64, 2*d.Links),
		linkTxPackets: make([]int64, 2*d.Links),
		engineCharges: make([]int64, d.Engines),
		queueDelay:    NewRunHistogram(),
		fct:           NewRunHistogram(),
	}
	c.inst.reset(d)
}

// ---- Hot-path observation (engine goroutines, no locks, no allocations) ----

// ObserveForward accounts one packet group leaving srcEngine for dstEngine
// over link/dir, having waited queueDelay seconds behind the transmitter's
// backlog. The caller is the engine owning the transmitting endpoint.
func (c *Collector) ObserveForward(srcEngine, dstEngine, link, dir int, bytes, packets int64, queueDelay float64) {
	i := srcEngine*c.dims.Engines + dstEngine
	c.matrixBytes[i] += bytes
	c.matrixPackets[i] += packets
	c.linkTxBytes[2*link+dir] += bytes
	c.linkTxPackets[2*link+dir] += packets
	c.queueDelay[srcEngine].Observe(queueDelay)
}

// ObserveDrop accounts packets tail-dropped at a full link buffer on the
// given engine.
func (c *Collector) ObserveDrop(engine int, packets int64) {
	c.drops[engine] += packets
}

// ObserveFlowComplete records one finished flow's completion time at its
// destination engine.
func (c *Collector) ObserveFlowComplete(engine int, fct float64) {
	c.flowsDone[engine]++
	c.fct[engine].Observe(fct)
}

// ---- Barrier-time publication (coordinating goroutine) ----

// Commit folds one executed synchronization window into the collector:
// charges[lp] is the kernel-event load of engine lp during [start, end). The
// published snapshot (matrix and scalars) refreshes every window; the
// Prometheus registry, link counters, histograms and the timeline refresh
// only when the window crosses a measurement-window (BucketWidth) boundary —
// sync windows are microseconds of virtual time apart and re-rendering ~2e²
// registry series at that cadence was the dominant telemetry-on cost, while
// BucketWidth is the paper's own observation granularity. Called by the
// emulator's window observer with the engines quiesced at the barrier.
func (c *Collector) Commit(start, end float64, charges []int64) {
	if c == nil || !c.pub.sized {
		return
	}
	for lp, ch := range charges {
		if lp >= len(c.engineCharges) {
			break
		}
		c.engineCharges[lp] += ch
		c.bucketCharges[lp] += float64(ch)
	}
	c.windows++
	c.virtualTime = end

	crossed := int(end/c.dims.BucketWidth) > c.lastBucket
	if crossed {
		c.recordTimeline(end)
	}

	c.mu.Lock()
	c.pub.windows = c.windows
	c.pub.virtualTime = end
	copy(c.pub.matrixBytes, c.matrixBytes)
	copy(c.pub.matrixPackets, c.matrixPackets)
	copy(c.pub.engineCharges, c.engineCharges)
	if crossed {
		c.publishSlowLocked()
		c.inst.publishWindow(c)
	}
	c.mu.Unlock()
}

// recordTimeline closes every measurement window up to end, emitting one
// timeline point per window (so idle windows still appear, at zero load).
func (c *Collector) recordTimeline(end float64) {
	cross, total := c.crossTotal()
	for b := c.lastBucket; b < int(end/c.dims.BucketWidth); b++ {
		t := float64(b+1) * c.dims.BucketWidth
		c.timeline = append(c.timeline, TrafficPoint{
			Time:             t,
			Imbalance:        metrics.Imbalance(c.bucketCharges),
			CrossEngineBytes: cross - c.prevCross,
			TotalBytes:       total - c.prevTotal,
		})
		// Only the first closed window carries the accumulated deltas; any
		// further windows skipped in one jump were idle.
		c.prevCross, c.prevTotal = cross, total
		for i := range c.bucketCharges {
			c.bucketCharges[i] = 0
		}
	}
	c.lastBucket = int(end / c.dims.BucketWidth)
}

// crossTotal sums the matrix into cross-engine and total bytes.
func (c *Collector) crossTotal() (cross, total int64) {
	e := c.dims.Engines
	for s := 0; s < e; s++ {
		for d := 0; d < e; d++ {
			v := c.matrixBytes[s*e+d]
			total += v
			if s != d {
				cross += v
			}
		}
	}
	return cross, total
}

// publishSlowLocked refreshes the slow-cadence published state (links,
// histograms, counters, timeline). Caller holds mu with engines quiesced.
func (c *Collector) publishSlowLocked() {
	copy(c.pub.linkTxBytes, c.linkTxBytes)
	copy(c.pub.linkTxPackets, c.linkTxPackets)
	c.pub.queueDelay.ResetHistogram()
	c.pub.fct.ResetHistogram()
	c.pub.flowsDone = 0
	c.pub.drops = 0
	for i := range c.queueDelay {
		_ = c.pub.queueDelay.Merge(c.queueDelay[i])
		_ = c.pub.fct.Merge(c.fct[i])
		c.pub.flowsDone += c.flowsDone[i]
		c.pub.drops += c.drops[i]
	}
	c.pub.timeline = append(c.pub.timeline[:0], c.timeline...)
	c.inst.publishSlow(c)
}

// Finish publishes the final state of the run — the emulator calls it once
// after the kernel completes, so Snapshot and the HTTP endpoints serve the
// exact end-of-run picture (and so identical runs publish byte-identical
// snapshots regardless of window/bucket alignment).
func (c *Collector) Finish(end float64) {
	if c == nil || !c.pub.sized {
		return
	}
	if end > c.virtualTime {
		c.virtualTime = end
	}
	// Close any open measurement window, so every observed byte and charge
	// appears in the timeline exactly once.
	cross, total := c.crossTotal()
	if sumFloats(c.bucketCharges) > 0 || cross != c.prevCross || total != c.prevTotal {
		c.recordTimeline(float64(c.lastBucket+1) * c.dims.BucketWidth)
	}
	c.mu.Lock()
	c.pub.windows = c.windows
	c.pub.virtualTime = c.virtualTime
	copy(c.pub.matrixBytes, c.matrixBytes)
	copy(c.pub.matrixPackets, c.matrixPackets)
	copy(c.pub.engineCharges, c.engineCharges)
	c.publishSlowLocked()
	c.inst.publishWindow(c)
	c.mu.Unlock()
}

func sumFloats(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ---- Checkpoint / rollback (crash recovery) ----

// Checkpoint is the run state at a barrier, held so a crash recovery can roll
// telemetry back together with the rest of the emulation instead of counting
// the replayed windows twice.
type Checkpoint struct{ state runState }

// Checkpoint captures the run state; call it at a barrier (engines quiesced).
func (c *Collector) Checkpoint() *Checkpoint {
	if c == nil {
		return nil
	}
	return &Checkpoint{c.runState.clone()}
}

// Restore rolls the run state back to a checkpoint. The checkpoint stays
// pristine (a later crash may roll back to it again).
func (c *Collector) Restore(cp *Checkpoint) {
	if c == nil || cp == nil {
		return
	}
	c.runState = cp.state.clone()
}

// ---- Snapshots ----

// Snapshot is a consistent barrier-time view of the traffic plane — what the
// /trafficmatrix endpoint serializes and emu.Result.Telemetry carries.
type Snapshot struct {
	// Engines is the matrix dimension.
	Engines int `json:"engines"`
	// VirtualTime is the virtual time of the snapshot's barrier.
	VirtualTime float64 `json:"virtualTime"`
	// Windows is the number of synchronization windows executed so far.
	Windows int64 `json:"windows"`
	// MatrixBytes[s][d] is the bytes handed from engine s to engine d
	// (diagonal = intra-engine forwards); MatrixPackets likewise.
	MatrixBytes   [][]int64 `json:"matrixBytes"`
	MatrixPackets [][]int64 `json:"matrixPackets"`
	// CrossEngineBytes sums the off-diagonal matrix; TotalBytes the whole.
	CrossEngineBytes int64 `json:"crossEngineBytes"`
	TotalBytes       int64 `json:"totalBytes"`
	// EngineCharges is the cumulative kernel-event load per engine.
	EngineCharges []int64 `json:"engineCharges"`
	// Imbalance is the normalized standard deviation of EngineCharges.
	Imbalance float64 `json:"imbalance"`
	// LinkTxBytes[l] / LinkTxPackets[l] total both directions of link l.
	LinkTxBytes   []int64 `json:"linkTxBytes"`
	LinkTxPackets []int64 `json:"linkTxPackets"`
	// FlowsCompleted and DroppedPackets total all engines.
	FlowsCompleted int64 `json:"flowsCompleted"`
	DroppedPackets int64 `json:"droppedPackets"`
	// QueueDelay and FCT are the merged per-engine histograms.
	QueueDelay *metrics.Histogram `json:"-"`
	FCT        *metrics.Histogram `json:"-"`
	// QueueDelayP50/P99 and FCTP50/P99 surface the histogram quantiles in
	// the JSON form (seconds).
	QueueDelayP50 float64 `json:"queueDelayP50"`
	QueueDelayP99 float64 `json:"queueDelayP99"`
	FCTP50        float64 `json:"fctP50"`
	FCTP99        float64 `json:"fctP99"`
	// Timeline is the measurement-window traffic history.
	Timeline []TrafficPoint `json:"timeline"`
}

// Snapshot returns the latest published view. Safe to call concurrently with
// a live run; nil-safe (returns an empty snapshot).
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return &Snapshot{}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	p := &c.pub
	e := c.dims.Engines
	s := &Snapshot{
		Engines:        e,
		VirtualTime:    p.virtualTime,
		Windows:        p.windows,
		MatrixBytes:    make([][]int64, e),
		MatrixPackets:  make([][]int64, e),
		EngineCharges:  append([]int64(nil), p.engineCharges...),
		LinkTxBytes:    make([]int64, len(p.linkTxBytes)/2),
		LinkTxPackets:  make([]int64, len(p.linkTxPackets)/2),
		FlowsCompleted: p.flowsDone,
		DroppedPackets: p.drops,
		QueueDelay:     p.queueDelay.CloneHistogram(),
		FCT:            p.fct.CloneHistogram(),
		Timeline:       append([]TrafficPoint(nil), p.timeline...),
	}
	for row := 0; row < e; row++ {
		s.MatrixBytes[row] = append([]int64(nil), p.matrixBytes[row*e:(row+1)*e]...)
		s.MatrixPackets[row] = append([]int64(nil), p.matrixPackets[row*e:(row+1)*e]...)
		for col, v := range s.MatrixBytes[row] {
			s.TotalBytes += v
			if col != row {
				s.CrossEngineBytes += v
			}
		}
	}
	for l := range s.LinkTxBytes {
		s.LinkTxBytes[l] = p.linkTxBytes[2*l] + p.linkTxBytes[2*l+1]
		s.LinkTxPackets[l] = p.linkTxPackets[2*l] + p.linkTxPackets[2*l+1]
	}
	loads := make([]float64, e)
	for i, ch := range s.EngineCharges {
		loads[i] = float64(ch)
	}
	s.Imbalance = metrics.Imbalance(loads)
	if s.QueueDelay != nil {
		s.QueueDelayP50 = s.QueueDelay.Quantile(50)
		s.QueueDelayP99 = s.QueueDelay.Quantile(99)
	}
	if s.FCT != nil {
		s.FCTP50 = s.FCT.Quantile(50)
		s.FCTP99 = s.FCT.Quantile(99)
	}
	return s
}
