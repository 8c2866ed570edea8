// Package des implements the conservative parallel discrete-event simulation
// kernel underneath the emulator — the role MaSSF's SSF kernel plays in the
// paper.
//
// The kernel runs one logical process (LP) per simulation-engine node.
// Execution is window-synchronized: all LPs process their local events up to
// a common horizon T+L, where the lookahead L is the minimum latency of any
// link crossing the partition, then exchange the events destined for other
// LPs at a barrier. Because every cross-LP event is delayed by at least L,
// events received at the barrier are always timestamped at or beyond the next
// window, so no LP ever sees an event in its past (the classic synchronous
// conservative protocol).
//
// This is exactly why the paper's first partitioning objective — maximize the
// link latency cut by the partition — matters: a larger lookahead means wider
// windows, fewer barriers, and more concurrency (§2.2.3).
//
// That loop exists once: a Grid picks each window and a Stepper dispatches it
// across a set of LPs — on one goroutine, or on persistent per-LP workers when
// the host has cores to spare. Kernel.Run is a Stepper over every LP whose
// barrier merges the outboxes in place; a distributed worker is a Stepper over
// some LPs whose coordinator walks the same Grid type and merges over the wire
// (step.go). What a window did leaves the kernel one way: Run fills one
// obs.Window record per executed window — deterministic per-LP counters, plus
// barrier wait where it was measured — and hands it to the single OnWindow
// hook, behind which the emulator keeps the engine cost model that reproduces
// the paper's emulation-time metrics, every recorder, and crash and resize
// handling.
//
// Hot-path layout. Pending events live in structure-of-arrays queues (parallel
// time/seq/payload slices: a sorted run for what is scheduled in firing
// order, a heap for the rest), so comparisons touch raw float64/int64 arrays
// without loading a payload. Cross-LP sends accumulate in batches each
// scheduler owns, one per destination — the in-process mirror of the dist
// protocol's per-window framing — and are re-sequenced at the barrier with a
// reused merge scratch, so the steady-state barrier allocates nothing. See
// DESIGN.md §14 for the layout and the determinism argument.
//
// The payload type P. The kernel is generic over what an event carries, and
// stores payloads by value in those queues, batches, scratch and checkpoints
// ([]P). It never clears a slot it has consumed: a popped queue entry, a
// drained batch and a used scratch row keep their last payload until the slot
// is overwritten. P should therefore be a small pointer-free value (the
// emulator's is 12 bytes) — the arrays are then never scanned by the collector
// and there is nothing to clear. A P that holds pointers (Kernel[any] in this
// package's own tests) still runs correctly; a stale reference only delays a
// collection.
package des

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
)

// Event is a timestamped message destined for an LP.
type Event[P any] struct {
	// Time is the virtual time at which the event fires (seconds).
	Time float64
	// LP is the destination logical process.
	LP int
	// Data is the payload interpreted by the Handler.
	Data P

	// seq orders simultaneous events deterministically. Locally scheduled
	// events get the destination LP's next sequence number; events arriving
	// over the barrier are re-sequenced in a deterministic merge order.
	seq int64
}

// Handler processes one event on behalf of LP lp at virtual time t. It may
// schedule further events — local or remote — through the Scheduler, and
// should call Scheduler.Charge to account the kernel-event load the event
// represents (the emulator charges one kernel event per packet, §4.1.1).
type Handler[P any] func(lp int, t float64, data P, s *Scheduler[P])

// Config configures a Kernel.
type Config[P any] struct {
	// NumLPs is the number of logical processes (simulation-engine nodes).
	NumLPs int
	// Lookahead is the synchronization window width L in virtual seconds.
	// It must be positive; cross-LP events must be scheduled at least L in
	// the future.
	Lookahead float64
	// Handler processes events. Required.
	Handler Handler[P]
	// OnWindow, if non-nil, is the one per-window hook: Run calls it after each
	// window's barrier — handler errors checked, outboxes merged — on the
	// coordinating goroutine, with the window's record: index, bounds and the
	// per-LP events, charges, remote sends, post-merge queue depths and barrier
	// wait (Cost is the caller's to fill). The record is the kernel's own,
	// overwritten in place at the next barrier and valid only during the call,
	// as are its slices (see obs.Window). No handler executes concurrently, so
	// the hook may safely take a Checkpoint, and may Restore one: the loop then
	// continues on a fresh window grid with the restored queues, statistics and
	// lookahead, which is how a crash rollback or a resize happens without
	// leaving Run. Returning a non-nil error stops the run: Run returns that
	// error together with the statistics accumulated so far (including the
	// window just completed). A nil hook costs nothing.
	OnWindow func(w *obs.Window) error
	// MeasureWait says somebody will read the record's per-LP barrier wait.
	// The kernel then times the windows it runs on per-LP workers — two clock
	// reads per LP per window and two per window; a window run on the caller's
	// goroutine has no barrier to wait at, is never timed, and reports zero.
	MeasureWait bool
	// EndTime, if positive, stops the run once the next event would fire at
	// or beyond this virtual time.
	EndTime float64
	// Sequential forces single-goroutine execution (useful to isolate
	// determinism bugs; results must be identical either way). Otherwise the
	// dispatch is chosen from what the kernel can observe: per-LP workers when
	// more than one LP is driven and GOMAXPROCS > 1, one goroutine when not.
	Sequential bool
}

// Stats summarizes a completed run.
type Stats struct {
	// VirtualEnd is the virtual time of the last executed window's end.
	VirtualEnd float64
	// Windows is the number of executed (non-empty) windows, i.e. barriers.
	Windows int64
	// SkippedTime is the idle virtual time jumped over between busy windows.
	SkippedTime float64
	// Events is the number of handler invocations per LP.
	Events []int64
	// Charges is the accumulated kernel-event load per LP (via Charge).
	Charges []int64
	// RemoteSends is the number of cross-LP events sent per LP.
	RemoteSends []int64
	// WallTime is the real time the run took.
	WallTime time.Duration
}

// TotalCharges sums the per-LP kernel-event loads.
func (s *Stats) TotalCharges() int64 {
	var t int64
	for _, c := range s.Charges {
		t += c
	}
	return t
}

// batch collects one window's sends from one source LP to one destination LP
// in structure-of-arrays form — the in-process counterpart of the dist
// protocol's per-window event frames. A batch never outlives its barrier —
// the barrier (or Stepper.Step) consumes every event of the window it was
// filled in — so each scheduler owns one per destination for the run, and the
// backing arrays are reused window after window: the steady-state send path
// allocates nothing.
type batch[P any] struct {
	// Dst is the destination LP, Src the sending LP.
	Dst, Src int
	// Times[i] is the i-th event's firing time; SrcIdx[i] its send order
	// within the source LP's window (the barrier merge tiebreak); Datas[i]
	// its payload.
	Times  []float64
	SrcIdx []int32
	Datas  []P
}

// reset empties a consumed batch for its scheduler's next window.
func (b *batch[P]) reset() {
	b.Times = b.Times[:0]
	b.SrcIdx = b.SrcIdx[:0]
	b.Datas = b.Datas[:0]
}

// lookaheadSlack is the rounding tolerance on "a cross-LP event fires at or
// after the window end": a link latency summed onto a timestamp may land an
// ulp short of it.
const lookaheadSlack = 1e-12

// Scheduler is the per-LP interface handlers use to schedule events and
// account load. It is only valid inside a Handler invocation.
type Scheduler[P any] struct {
	k         *Kernel[P]
	lp        int
	now       float64
	windowEnd float64
	// events, charges and remote count the current window's handler calls,
	// charged load and cross-LP sends; busy is the window's measured wall
	// time when the Stepper is timing. The Stepper folds them at the barrier.
	events  int64
	charges int64
	remote  int64
	busy    float64
	// owned is the scheduler's batch for each destination LP. batches holds
	// the ones this window sent into, in first-touch order; batchAt indexes
	// those by destination (nil: untouched this window). Both are drained at
	// the barrier.
	owned   []batch[P]
	batches []*batch[P]
	batchAt []*batch[P]
	err     error
}

// Now returns the virtual time of the event being handled.
func (s *Scheduler[P]) Now() float64 { return s.now }

// LP returns the logical process the current event executes on.
func (s *Scheduler[P]) LP() int { return s.lp }

// Charge accounts n kernel events (packets) to the current LP in the current
// window.
func (s *Scheduler[P]) Charge(n int64) { s.charges += n }

// Schedule enqueues an event for LP lp at virtual time t. Local events
// (lp == current) may be scheduled at any t >= Now(). Remote events must obey
// the lookahead: t >= current window end. Violations poison the run with an
// error rather than corrupting causality.
func (s *Scheduler[P]) Schedule(lp int, t float64, data P) {
	if !(t >= s.now) { // NaN included: it would break the queue's order
		s.fail(fmt.Errorf("des: LP %d scheduled event in the past: t=%g < now=%g", s.lp, t, s.now))
		return
	}
	if lp == s.lp {
		s.k.pushLocal(lp, t, data)
		return
	}
	if lp < 0 || lp >= s.k.cfg.NumLPs {
		s.fail(fmt.Errorf("des: LP %d scheduled event for invalid LP %d", s.lp, lp))
		return
	}
	if t < s.windowEnd-lookaheadSlack {
		s.fail(fmt.Errorf("des: LP %d violated lookahead: remote event at t=%g before window end %g", s.lp, t, s.windowEnd))
		return
	}
	b := s.batchAt[lp]
	if b == nil {
		b = &s.owned[lp]
		s.batchAt[lp] = b
		s.batches = append(s.batches, b)
	}
	b.Times = append(b.Times, t)
	b.SrcIdx = append(b.SrcIdx, int32(s.remote))
	b.Datas = append(b.Datas, data)
	s.remote++
}

func (s *Scheduler[P]) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Fail poisons the run with err (first error wins): the current window stops
// processing further events on this LP and the kernel surfaces the error at
// the barrier. Handlers use it for unrecoverable payload or protocol errors —
// the same mechanism lookahead violations use — instead of panicking.
func (s *Scheduler[P]) Fail(err error) { s.fail(err) }

// Kernel is the parallel event engine. Create with New, seed initial events
// with Schedule, then call Run — or claim LPs with Stepper and drive the
// windows from outside. Restore reinstalls a checkpoint at any barrier, inside
// a running loop or between runs.
type Kernel[P any] struct {
	cfg    Config[P]
	queues []eventQueue[P]
	seqs   []int64

	// stats is the cumulative run statistics, live: the window loop folds
	// every window into it, Checkpoint snapshots it and Restore replaces it.
	stats *Stats
	// grid picks Run's windows; Restore re-grids it, so a running loop carries
	// on with the restored lookahead at its next iteration.
	grid Grid
	// driver is the Stepper holding the kernel's LPs (Run's own, or an outside
	// coordinator's), nil when none does.
	driver *Stepper[P]

	// Barrier merge scratch, reused across windows: batches bucketed by
	// destination, the list of destinations with traffic, and the
	// structure-of-arrays sort area, empty between destinations. Zero
	// steady-state allocations.
	perDst  [][]*batch[P]
	dstList []int
	merge   mergeScratch[P]
}

// New validates cfg and returns a kernel ready for initial event injection.
func New[P any](cfg Config[P]) (*Kernel[P], error) {
	if cfg.NumLPs < 1 {
		return nil, fmt.Errorf("des: NumLPs = %d, must be >= 1", cfg.NumLPs)
	}
	if cfg.Lookahead <= 0 {
		return nil, fmt.Errorf("des: Lookahead = %g, must be > 0", cfg.Lookahead)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("des: Handler is required")
	}
	return &Kernel[P]{
		cfg:    cfg,
		queues: make([]eventQueue[P], cfg.NumLPs),
		seqs:   make([]int64, cfg.NumLPs),
		stats:  newStats(cfg.NumLPs),
		grid:   Grid{Lookahead: cfg.Lookahead, EndTime: cfg.EndTime},
	}, nil
}

func newStats(n int) *Stats {
	return &Stats{
		Events:      make([]int64, n),
		Charges:     make([]int64, n),
		RemoteSends: make([]int64, n),
	}
}

// clone returns a deep copy of the statistics.
func (s *Stats) clone() Stats {
	c := *s
	c.Events = append([]int64(nil), s.Events...)
	c.Charges = append([]int64(nil), s.Charges...)
	c.RemoteSends = append([]int64(nil), s.RemoteSends...)
	return c
}

// Schedule inserts an initial event before Run (not safe during Run; use the
// Scheduler inside handlers there).
func (k *Kernel[P]) Schedule(lp int, t float64, data P) error {
	if lp < 0 || lp >= k.cfg.NumLPs {
		return fmt.Errorf("des: initial event for invalid LP %d", lp)
	}
	if !(t >= 0) {
		return fmt.Errorf("des: initial event at negative or NaN time %g", t)
	}
	k.pushLocal(lp, t, data)
	return nil
}

// Reserve makes room for n more events on LP lp that are about to be
// scheduled in firing order (ascending time): the queue tier that takes them
// is sized once instead of growing under the Schedule calls. It is a capacity
// hint only — scheduling more, fewer or out of order stays correct, and a hint
// for an LP the kernel does not have is ignored (Schedule is what refuses it).
func (k *Kernel[P]) Reserve(lp, n int) {
	if lp < 0 || lp >= k.cfg.NumLPs || n <= 0 {
		return
	}
	q := &k.queues[lp]
	q.runTimes = slices.Grow(q.runTimes, n)
	q.runSeqs = slices.Grow(q.runSeqs, n)
	q.runDatas = slices.Grow(q.runDatas, n)
}

func (k *Kernel[P]) pushLocal(lp int, t float64, data P) {
	seq := k.seqs[lp]
	k.seqs[lp]++
	k.queues[lp].push(t, seq, data)
}

// Run executes the simulation to completion (or EndTime) and returns the
// kernel's cumulative statistics: the window loop over a Stepper that holds
// every LP. An OnWindow hook that Restores a checkpoint changes queues,
// statistics and lookahead under the loop, which continues on the fresh grid;
// a hook error stops it, and a later Run picks up where this one stopped
// (after a Restore, from the restored checkpoint).
func (k *Kernel[P]) Run() (*Stats, error) {
	n := k.cfg.NumLPs
	all := make([]int, n)
	for lp := range all {
		all[lp] = lp
	}
	st, err := k.Stepper(all)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	began, wall := time.Now(), k.stats.WallTime

	hook := k.cfg.OnWindow
	var win obs.Window
	if hook != nil {
		win.Wait = make([]float64, n)
		if k.cfg.MeasureWait && st.starts != nil {
			st.EnableTiming()
		}
	}
	for {
		T, end, skipped, ok := k.grid.Next(st.NextEventTime())
		if !ok {
			break
		}
		k.stats.SkippedTime += skipped

		var winStart time.Time
		if st.timing {
			winStart = time.Now()
		}
		if err := st.exec(end); err != nil {
			return nil, err
		}
		// Barrier: merge outboxes deterministically, fold the counters, hand the
		// window's record to the hook.
		k.mergeOutboxes(st.scheds)
		res := st.fold(end)
		if hook == nil {
			continue
		}
		for lp := 0; lp < n; lp++ {
			res.Queue[lp] = int64(k.queues[lp].Len()) // post-merge here
		}
		if st.timing {
			// Barrier wait: the gap between an LP finishing its window and the
			// slowest LP releasing the barrier.
			windowWall := time.Since(winStart).Seconds()
			for lp := 0; lp < n; lp++ {
				win.Wait[lp] = max(windowWall-res.Busy[lp], 0)
			}
		}
		win.Index, win.Start, win.End = k.stats.Windows-1, T, end
		win.Events, win.Charges, win.Remote, win.Queue = res.Events, res.Charges, res.Remote, res.Queue
		if err = hook(&win); err != nil {
			break
		}
	}
	k.stats.WallTime = wall + time.Since(began)
	return k.stats, err
}

// runWindow drains one LP's queue up to windowEnd. Only this goroutine
// touches the LP's queue, scheduler and statistics slots during the window;
// remote events go to the scheduler's private per-destination batches, and
// the window's counters stay on the scheduler until the barrier folds them.
func (k *Kernel[P]) runWindow(lp int, s *Scheduler[P], windowEnd float64, timed bool) {
	var begin time.Time
	if timed {
		begin = time.Now()
	}
	s.windowEnd = windowEnd
	q := &k.queues[lp]
	limit := windowEnd
	if k.cfg.EndTime > 0 {
		limit = min(limit, k.cfg.EndTime)
	}
	events := int64(0)
	for q.head() < limit {
		t, data := q.pop()
		s.now = t
		events++
		k.cfg.Handler(lp, t, data, s)
		if s.err != nil {
			break
		}
	}
	s.events = events
	// The cumulative per-LP slots are written once per window, not per event:
	// adjacent LPs' slots share cache lines.
	stats := k.stats
	stats.Events[lp] += events
	stats.Charges[lp] += s.charges
	stats.RemoteSends[lp] += s.remote
	if timed {
		s.busy = time.Since(begin).Seconds()
	}
}

// mergeOutboxes distributes the window's cross-LP batches into destination
// queues. Sequence numbers are per destination LP, so the historical global
// (time, source LP, send order) insertion order can be applied one
// destination at a time: sorting each destination's incoming events by that
// same key is exactly the restriction of the global order to that
// destination, and destinations' queues are independent, so the per-LP seq
// assignment — and therefore every queue — is byte-identical to the global
// merge (which lives on in batch_test.go as the oracle tests verify this
// against).
func (k *Kernel[P]) mergeOutboxes(scheds []*Scheduler[P]) {
	if k.perDst == nil {
		k.perDst = make([][]*batch[P], k.cfg.NumLPs)
	}
	// Bucket batches by destination. Iterating sources in ascending LP order
	// keeps each bucket's batches pre-sorted by the source tiebreak.
	for _, s := range scheds {
		for _, b := range s.batches {
			if len(k.perDst[b.Dst]) == 0 {
				k.dstList = append(k.dstList, b.Dst)
			}
			k.perDst[b.Dst] = append(k.perDst[b.Dst], b)
			s.batchAt[b.Dst] = nil
		}
		s.batches = s.batches[:0]
	}
	// Destinations' queues are independent, so the order they are served in
	// (first touch) decides nothing.
	m := &k.merge
	for _, dst := range k.dstList {
		bs := k.perDst[dst]
		if len(bs) == 1 && len(bs[0].Times) == 1 {
			// Single incoming event: no ordering decision to make.
			k.pushLocal(dst, bs[0].Times[0], bs[0].Datas[0])
		} else {
			for _, b := range bs {
				m.appendBatch(b)
			}
			if !m.sorted() {
				sort.Sort(m)
			}
			for i := range m.times {
				k.pushLocal(dst, m.times[i], m.datas[i])
			}
			m.reset()
		}
		for _, b := range bs {
			b.reset()
		}
		k.perDst[dst] = bs[:0]
	}
	k.dstList = k.dstList[:0]
}

// mergeScratch is the reusable structure-of-arrays sort area for one
// destination's barrier merge, ordered by (time, source LP, send order).
type mergeScratch[P any] struct {
	times []float64
	srcs  []int32
	idxs  []int32
	datas []P
}

func (m *mergeScratch[P]) Len() int { return len(m.times) }

func (m *mergeScratch[P]) Less(i, j int) bool {
	if m.times[i] != m.times[j] {
		return m.times[i] < m.times[j]
	}
	if m.srcs[i] != m.srcs[j] {
		return m.srcs[i] < m.srcs[j]
	}
	return m.idxs[i] < m.idxs[j]
}

func (m *mergeScratch[P]) Swap(i, j int) {
	m.times[i], m.times[j] = m.times[j], m.times[i]
	m.srcs[i], m.srcs[j] = m.srcs[j], m.srcs[i]
	m.idxs[i], m.idxs[j] = m.idxs[j], m.idxs[i]
	m.datas[i], m.datas[j] = m.datas[j], m.datas[i]
}

// reset empties the scratch after a destination's merge.
func (m *mergeScratch[P]) reset() {
	m.times = m.times[:0]
	m.srcs = m.srcs[:0]
	m.idxs = m.idxs[:0]
	m.datas = m.datas[:0]
}

func (m *mergeScratch[P]) appendBatch(b *batch[P]) {
	src := int32(b.Src)
	for i := range b.Times {
		m.times = append(m.times, b.Times[i])
		m.srcs = append(m.srcs, src)
		m.idxs = append(m.idxs, b.SrcIdx[i])
		m.datas = append(m.datas, b.Datas[i])
	}
}

// sorted reports whether the scratch is already in merge order — the common
// case when one source feeds the destination with non-decreasing timestamps,
// letting the barrier skip the sort entirely.
func (m *mergeScratch[P]) sorted() bool {
	for i := 1; i < len(m.times); i++ {
		if m.Less(i, i-1) {
			return false
		}
	}
	return true
}

// eventQueue is one LP's pending events, popped in (time, seq) order. It is
// two tiers under that one order. A push whose key is at or beyond the last
// key of the sorted run appends to the run — O(1), and how everything arrives
// that is scheduled in firing order (the emulator seeds every flow start that
// way) — and is consumed from the run's front by a cursor; any other push goes
// to a binary min-heap. pop and head take the smaller of the run's front and
// the heap's root, so what comes out is the (time, seq) minimum whichever
// tier holds it: which tier an event sits in changes cost, never order.
//
// Both tiers are structure-of-arrays — parallel time/seq/payload slices, not
// a slice of Event structs — so comparisons touch only the flat
// float64/int64 arrays and no payload is loaded until pop returns one. The
// heap sifts by moving a hole: the travelling entry stays in locals while
// parents or children shift into the hole, and is stored once. Hand-rolled
// rather than container/heap, whose any-typed interface would box every event
// on push and pop. Popped slots are not cleared (see the package comment on P).
type eventQueue[P any] struct {
	times []float64
	seqs  []int64
	datas []P
	// The sorted run: entries [runHead:] are pending, ascending by (time,
	// seq); the ones before are popped and compacted away once they outnumber
	// the pending ones.
	runTimes []float64
	runSeqs  []int64
	runDatas []P
	runHead  int
	// Pad each queue header out to three whole cache lines: the kernel stores
	// one eventQueue per LP in a flat slice, and push/pop rewrite the slice
	// headers, so without padding adjacent LPs' headers would false-share
	// under parallel execution.
	_ [40]byte
}

func (q *eventQueue[P]) Len() int { return len(q.times) + len(q.runTimes) - q.runHead }

// runFirst reports whether the earliest pending event is the run's front
// rather than the heap's root. The queue must not be empty.
func (q *eventQueue[P]) runFirst() bool {
	i := q.runHead
	if i == len(q.runTimes) {
		return false
	}
	if len(q.times) == 0 {
		return true
	}
	rt, ht := q.runTimes[i], q.times[0]
	return rt < ht || rt == ht && q.runSeqs[i] < q.seqs[0]
}

// head returns the earliest pending event's time, +Inf when there is none.
func (q *eventQueue[P]) head() float64 {
	t := math.Inf(1)
	if len(q.times) > 0 {
		t = q.times[0]
	}
	if i := q.runHead; i < len(q.runTimes) && q.runTimes[i] < t {
		t = q.runTimes[i]
	}
	return t
}

func (q *eventQueue[P]) push(t float64, seq int64, data P) {
	if n := len(q.runTimes); n == q.runHead || t > q.runTimes[n-1] || t == q.runTimes[n-1] && seq > q.runSeqs[n-1] {
		q.runTimes = append(q.runTimes, t)
		q.runSeqs = append(q.runSeqs, seq)
		q.runDatas = append(q.runDatas, data)
		return
	}
	i := len(q.times)
	q.times = append(q.times, t)
	q.seqs = append(q.seqs, seq)
	q.datas = append(q.datas, data)
	times, seqs, datas := q.times, q.seqs, q.datas
	for i > 0 {
		parent := (i - 1) / 2
		pt, ps := times[parent], seqs[parent]
		if pt < t || pt == t && ps <= seq {
			break
		}
		times[i], seqs[i], datas[i] = pt, ps, datas[parent]
		i = parent
	}
	times[i], seqs[i], datas[i] = t, seq, data
}

func (q *eventQueue[P]) pop() (float64, P) {
	if q.runFirst() {
		i := q.runHead
		t, data := q.runTimes[i], q.runDatas[i]
		i++
		if live := len(q.runTimes) - i; live < i {
			// More popped entries than pending ones: move the pending ones
			// to the front (none left: just rewind).
			copy(q.runTimes, q.runTimes[i:])
			copy(q.runSeqs, q.runSeqs[i:])
			copy(q.runDatas, q.runDatas[i:])
			q.runTimes, q.runSeqs, q.runDatas = q.runTimes[:live], q.runSeqs[:live], q.runDatas[:live]
			i = 0
		}
		q.runHead = i
		return t, data
	}
	times, seqs, datas := q.times, q.seqs, q.datas
	t0, data0 := times[0], datas[0]
	last := len(times) - 1
	t, seq, data := times[last], seqs[last], datas[last]
	q.times, q.seqs, q.datas = times[:last], seqs[:last], datas[:last]
	if last == 0 { // it was the only entry: nothing to put back
		return t0, data0
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && (times[r] < times[child] || times[r] == times[child] && seqs[r] < seqs[child]) {
			child = r
		}
		ct, cs := times[child], seqs[child]
		if !(ct < t || ct == t && cs < seq) {
			break
		}
		times[i], seqs[i], datas[i] = ct, cs, datas[child]
		i = child
	}
	times[i], seqs[i], datas[i] = t, seq, data
	return t0, data0
}

// export copies the queue's contents out as Events for LP lp (heap then run,
// not time order — checkpointing sorts afterwards).
func (q *eventQueue[P]) export(lp int) []Event[P] {
	evs := make([]Event[P], 0, q.Len())
	for i := range q.times {
		evs = append(evs, Event[P]{Time: q.times[i], LP: lp, Data: q.datas[i], seq: q.seqs[i]})
	}
	for i := q.runHead; i < len(q.runTimes); i++ {
		evs = append(evs, Event[P]{Time: q.runTimes[i], LP: lp, Data: q.runDatas[i], seq: q.runSeqs[i]})
	}
	return evs
}
