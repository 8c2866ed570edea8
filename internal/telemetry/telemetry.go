// Package telemetry is the traffic-plane observability layer, the companion
// of internal/obs (which watches the kernel plane). Where obs counts kernel
// events and barrier waits, telemetry watches the *traffic* the paper's §3.3
// PROFILE strategy is built on: who sends how much to whom, over which links,
// between which engines — continuously, while the emulation runs.
//
// The emulator already counts, per link direction, the bytes and packets
// each transmitter carried and the packets tail-dropped at its full buffer
// (emu.NetState). The collector does not count them a second time; it keeps:
//
//   - a src-engine × dst-engine byte/packet matrix, per-link transmitted
//     bytes/packets and the drop total: views folded from the emulator's
//     counters (Traffic) at every measurement-window (BucketWidth) crossing,
//     before every membership change and at Finish. A fold bins each link
//     direction's growth since the previous fold by the engines of its two
//     ends; the assignment only changes at barriers, and a membership change
//     folds before it applies, so the cumulative matrix is exact across
//     remaps,
//   - per-engine queue-delay and flow-completion-time histograms — the only
//     facts the collector measures itself: one observation per forwarded
//     packet group, one per completed flow,
//   - a measurement-window timeline of load imbalance and cross-engine
//     traffic.
//
// What each node and link *received* — the PROFILE mapping's input — is the
// NetFlow accounting's fact (internal/netflow), not kept a second time here.
//
// Snapshot (/trafficmatrix) and WriteExposition (/metrics) render this one
// state under one lock; neither keeps a copy of its own.
//
// Design constraints, matching the obs contract:
//
//   - Zero cost when disabled: a nil *Collector adds no allocations and no
//     measurable work to the per-packet path — every instrumentation site
//     guards on the nil pointer (AllocsPerRun-enforced in emu).
//   - Single-writer hot state: engine e's two histograms are written only by
//     engine e's goroutine, so the per-packet path takes no locks.
//   - Deterministic snapshots derived from virtual time only. Commits,
//     folds and merges happen at window barriers on the coordinating goroutine
//     (engines quiesced), under the lock HTTP readers take, so live readers
//     only ever see a consistent barrier-time view; two identical runs
//     publish byte-identical final snapshots and expositions. The live view,
//     /metrics and /trafficmatrix alike, refreshes at different cadences:
//     the window count, virtual time, engine charges and load imbalance
//     every synchronization window; the matrix, link totals and drops at
//     every fold; the histograms (and so the completed-flow count) and the
//     timeline at measurement-window crossings and at Finish.
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
	// folds, histogram merges and timeline points.
	BucketWidth float64
}

// Traffic is the emulator side of a fold: its counters per link direction,
// indexed [2*link+dir] and never decreasing — bytes and packets transmitted,
// packets tail-dropped at a full buffer — and the engines at a direction's
// transmitting (src) and receiving (dst) end under the assignment in force.
type Traffic interface {
	Counters() (bytes, packets, drops []int64)
	SlotEngines(slot int) (src, dst int)
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

// Collector accumulates traffic-plane telemetry during an emulation run: two
// per-engine histograms it observes itself, and the matrix, link totals and
// drops it folds from the emulator's counters at barriers. Create one with
// New, hand it to emu.Run via emu.WithTelemetry, and read it live or after
// the run (Snapshot, WriteExposition). A nil *Collector is a valid
// "disabled" collector for every method the emulator calls.
type Collector struct {
	mu   sync.RWMutex // guards the barrier state against HTTP readers
	dims Dims

	runState
}

// runState is everything a run mutates, as one value, so that Reset starts a
// run from nothing in one assignment.
type runState struct {
	// Hot state: engine e's histograms, written by engine e's goroutine with
	// no synchronization and read only at window barriers (engines quiesced)
	// or after the run.
	queueDelay []*metrics.Histogram
	fct        []*metrics.Histogram

	// Barrier state, written under mu on the coordinating goroutine. sized
	// marks a Reset: until one, commits, folds and Finish are ignored.
	sized         bool
	windows       int64
	virtualTime   float64
	engineCharges []int64
	bucketCharges []float64
	lastBucket    int
	timeline      []TrafficPoint
	prevCross     int64
	prevTotal     int64
	// The folded views. The link arrays are the counters at the last fold,
	// so the next fold bins only the growth since.
	matrixBytes   []int64 // engines×engines, row-major [src*engines+dst]
	matrixPackets []int64
	linkTxBytes   []int64 // 2×links, [2*link+dir]
	linkTxPackets []int64
	drops         int64
	// queueDelayAll and fctAll merge the engines' histograms at the last
	// measurement-window crossing; merged is false until the first.
	queueDelayAll *metrics.Histogram
	fctAll        *metrics.Histogram
	merged        bool
}

// newRunState is the empty state of a run with d's dimensions.
func newRunState(d Dims) runState {
	s := runState{
		queueDelay:    make([]*metrics.Histogram, d.Engines),
		fct:           make([]*metrics.Histogram, d.Engines),
		engineCharges: make([]int64, d.Engines),
		bucketCharges: make([]float64, d.Engines),
		matrixBytes:   make([]int64, d.Engines*d.Engines),
		matrixPackets: make([]int64, d.Engines*d.Engines),
		linkTxBytes:   make([]int64, 2*d.Links),
		linkTxPackets: make([]int64, 2*d.Links),
		queueDelayAll: NewRunHistogram(),
		fctAll:        NewRunHistogram(),
	}
	for i := range s.queueDelay {
		s.queueDelay[i] = NewRunHistogram()
		s.fct[i] = NewRunHistogram()
	}
	return s
}

// New returns an empty, unsized Collector. The emulator sizes it (Reset) at
// run start; until then snapshots and the exposition are empty, so HTTP
// endpoints can be mounted before the run begins.
func New() *Collector {
	return &Collector{runState: newRunState(Dims{})}
}

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
	c.sized = true
}

// ---- Hot-path observation (engine goroutines, no locks, no allocations) ----

// ObserveQueueDelay records that a packet group leaving engine's node waited
// delay seconds behind the transmitter's backlog. The caller is that engine.
func (c *Collector) ObserveQueueDelay(engine int, delay float64) {
	c.queueDelay[engine].Observe(delay)
}

// ObserveFlowComplete records one finished flow's completion time at its
// destination engine.
func (c *Collector) ObserveFlowComplete(engine int, fct float64) {
	c.fct[engine].Observe(fct)
}

// ---- Barrier-time folds and merges (coordinating goroutine) ----

// Commit folds one executed synchronization window into the collector:
// charges[lp] is the kernel-event load of engine lp during [start, end). The
// window count, virtual time and charges refresh every window; when the
// window crosses a measurement-window (BucketWidth) boundary the collector
// also folds t's counters, closes timeline points and merges the histograms
// — sync windows are microseconds of virtual time apart, and BucketWidth is
// the paper's own observation granularity. Called by the emulator's window observer with the engines
// quiesced at the barrier.
func (c *Collector) Commit(start, end float64, charges []int64, t Traffic) {
	if c == nil || !c.sized {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for lp, ch := range charges {
		if lp >= len(c.engineCharges) {
			break
		}
		c.engineCharges[lp] += ch
		c.bucketCharges[lp] += float64(ch)
	}
	c.windows++
	c.virtualTime = end
	if c.Crosses(end) {
		c.fold(t)
		c.recordTimeline(end)
		c.merge()
	}
}

// Crosses reports whether a window ending at end closes a measurement window,
// the windows whose Commit folds and merges; a nil collector's never do.
// Call it where Commit is called.
func (c *Collector) Crosses(end float64) bool {
	return c != nil && c.sized && int(end/c.dims.BucketWidth) > c.lastBucket
}

// Fold brings the matrix, link totals and drop total up to t's counters. The
// emulator calls it at a barrier just before a membership change's policy
// runs, while the assignment the traffic since the last fold ran under is
// still in force, so the policy reads a current matrix and none of that
// traffic is binned by the new assignment.
func (c *Collector) Fold(t Traffic) {
	if c == nil || !c.sized {
		return
	}
	c.mu.Lock()
	c.fold(t)
	c.mu.Unlock()
}

// fold bins each link direction's growth since the previous fold into the
// matrix cell of its two ends' engines. Caller holds mu.
func (c *Collector) fold(t Traffic) {
	bytes, packets, drops := t.Counters()
	e := c.dims.Engines
	for i, b := range bytes {
		db, dp := b-c.linkTxBytes[i], packets[i]-c.linkTxPackets[i]
		if db == 0 && dp == 0 {
			continue
		}
		src, dst := t.SlotEngines(i)
		c.matrixBytes[src*e+dst] += db
		c.matrixPackets[src*e+dst] += dp
	}
	copy(c.linkTxBytes, bytes)
	copy(c.linkTxPackets, packets)
	c.drops = metrics.Sum(drops)
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
		clear(c.bucketCharges)
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

// merge merges the engines' histograms. Caller holds mu with engines
// quiesced.
func (c *Collector) merge() {
	c.queueDelayAll.ResetHistogram()
	c.fctAll.ResetHistogram()
	for i := range c.queueDelay {
		_ = c.queueDelayAll.Merge(c.queueDelay[i])
		_ = c.fctAll.Merge(c.fct[i])
	}
	c.merged = true
}

// Finish folds and merges the final state of the run — the emulator calls
// it once after the kernel completes, so Snapshot and the HTTP endpoints
// serve the exact end-of-run picture (and so identical runs publish
// byte-identical snapshots regardless of window/bucket alignment).
func (c *Collector) Finish(end float64, t Traffic) {
	if c == nil || !c.sized {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if end > c.virtualTime {
		c.virtualTime = end
	}
	c.fold(t)
	// Close any open measurement window, so every observed byte and charge
	// appears in the timeline exactly once.
	cross, total := c.crossTotal()
	if metrics.Sum(c.bucketCharges) > 0 || cross != c.prevCross || total != c.prevTotal {
		c.recordTimeline(float64(c.lastBucket+1) * c.dims.BucketWidth)
	}
	c.merge()
}

// ---- Snapshots ----

// Snapshot is a consistent barrier-time view of the traffic plane — what the
// /trafficmatrix endpoint serializes and emu.Result.Telemetry carries. Live,
// its parts refresh at the cadences the package comment lists; after Finish
// they all describe the end of the run.
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
	// FlowsCompleted is the merged FCT histogram's count; DroppedPackets
	// totals every link direction's drops.
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

// Snapshot returns a copy of the collector's state. Safe to call concurrently with
// a live run; nil-safe (returns an empty snapshot).
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return &Snapshot{}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	e := c.dims.Engines
	s := &Snapshot{
		Engines:        e,
		VirtualTime:    c.virtualTime,
		Windows:        c.windows,
		MatrixBytes:    make([][]int64, e),
		MatrixPackets:  make([][]int64, e),
		EngineCharges:  append([]int64(nil), c.engineCharges...),
		LinkTxBytes:    make([]int64, len(c.linkTxBytes)/2),
		LinkTxPackets:  make([]int64, len(c.linkTxPackets)/2),
		FlowsCompleted: c.fctAll.Count,
		DroppedPackets: c.drops,
		QueueDelay:     c.queueDelayAll.CloneHistogram(),
		FCT:            c.fctAll.CloneHistogram(),
		Timeline:       append([]TrafficPoint(nil), c.timeline...),
	}
	for row := 0; row < e; row++ {
		s.MatrixBytes[row] = append([]int64(nil), c.matrixBytes[row*e:(row+1)*e]...)
		s.MatrixPackets[row] = append([]int64(nil), c.matrixPackets[row*e:(row+1)*e]...)
	}
	s.CrossEngineBytes, s.TotalBytes = c.crossTotal()
	for l := range s.LinkTxBytes {
		s.LinkTxBytes[l] = c.linkTxBytes[2*l] + c.linkTxBytes[2*l+1]
		s.LinkTxPackets[l] = c.linkTxPackets[2*l] + c.linkTxPackets[2*l+1]
	}
	s.Imbalance = c.imbalance()
	s.QueueDelayP50 = s.QueueDelay.Quantile(50)
	s.QueueDelayP99 = s.QueueDelay.Quantile(99)
	s.FCTP50 = s.FCT.Quantile(50)
	s.FCTP99 = s.FCT.Quantile(99)
	return s
}

// imbalance is the normalized standard deviation of the cumulative engine
// charges, as Snapshot and WriteExposition report it. Caller holds mu.
func (c *Collector) imbalance() float64 {
	return metrics.Imbalance(metrics.Floats(c.engineCharges))
}
