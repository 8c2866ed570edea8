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
// That loop exists once: a Grid picks each window and a Stepper runs it on
// each of a set of LPs in LP order, on the caller's goroutine. Kernel.Run is a
// Stepper over every LP that sends each cross-LP event straight into its
// destination's queue; a distributed worker is a Stepper over some LPs whose
// coordinator walks the same Grid type and merges over the wire (step.go).
// Using more than one core means running more than one such worker, one
// process per engine group, as the paper runs one MaSSF engine per cluster
// node. What a window did leaves the kernel one way: Run fills one obs.Window
// record per executed window — deterministic per-LP counters — and hands it to
// the single OnWindow hook, behind which the emulator keeps the engine cost
// model that reproduces the paper's emulation-time metrics, every recorder, and
// crash and resize handling.
//
// Hot-path layout. Each LP's pending events are the ascending runs its link
// streams feed it, kept in pooled structure-of-arrays blocks under one small
// heap of run heads, so a push appends and a pop sifts a heap of a few runs.
// Equal-time events pop by a provenance key fixed at push time (window, the
// LP's own pushes before arrivals, push order), so Run's barrier has nothing
// to merge. A worker's sends, and the few landing just short of a window's
// end, go through batches each scheduler owns per destination — the mirror of
// the dist protocol's per-window framing — reused window after window, so the
// steady-state barrier allocates nothing. DESIGN.md §14 has the layout and the
// determinism argument.
//
// The payload type P. The kernel is generic over what an event carries, and
// stores payloads by value in those queues, batches and checkpoints ([]P). It
// never clears a slot it has consumed: a popped queue entry and a drained
// batch keep their last payload until the slot is overwritten. P should
// therefore be a small pointer-free value (the emulator's is 12 bytes) — the
// arrays are then never scanned by the collector and there is nothing to
// clear. A P that holds pointers (Kernel[any] in this package's own tests)
// still runs correctly; a stale reference only delays a collection.
package des

import (
	"errors"
	"fmt"
	"math"
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

	// seq orders simultaneous events deterministically: the provenance key
	// the destination LP's push gave it (see Kernel.push).
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
	// window's barrier — handler errors checked, every send enqueued — with the
	// window's record: index, bounds and the per-LP events, charges, remote
	// sends and post-barrier queue depths (Cost is the caller's to fill). The
	// record is the kernel's own, overwritten in place at the next barrier and
	// valid only during the call, as are its slices (see obs.Window). No
	// handler is executing, so the hook may safely take a Checkpoint, and may
	// Restore one: the loop then continues on a fresh window grid with the
	// restored queues, statistics and lookahead, which is how a crash recovery
	// or a resize happens without leaving Run. Returning a non-nil error stops
	// the run: Run returns that error together with the statistics
	// accumulated so far (including the window just completed). A nil hook
	// costs nothing.
	OnWindow func(w *obs.Window) error
	// EndTime, if positive, stops the run once the next event would fire at
	// or beyond this virtual time.
	EndTime float64
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
// protocol's per-window event frames. Under Run it holds only the sends that
// land just short of the window end. A batch never outlives its barrier — the
// barrier (or Stepper.Step) consumes every event of the window it was filled
// in — so each scheduler owns one per destination for the run, and the backing
// arrays are reused window after window: the steady-state send path allocates
// nothing.
type batch[P any] struct {
	// Dst is the destination LP; the sending LP is the owning scheduler's.
	Dst int
	// Times[i] is the i-th event's firing time; SrcIdx[i] its send order
	// within the source LP's window (the coordinator's merge tiebreak);
	// Datas[i] its payload.
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

// The provenance key an LP pops equal-time events by, packed into the queue's
// int64 sequence number as epoch<<32 | phase<<31 | rank: the epoch is the
// index of the window a push belongs to plus one, or the window count outside
// any window (seeding, Restore, Inject); the phase puts the LP's own pushes
// before arrivals; the rank counts the LP's pushes per epoch and phase. A field
// past 31 bits is ErrKeySpace, never a wrap.
const (
	phaseLocal   = 0 // pushed by the LP's own handler
	phaseArrival = 1 // anything else
	maxKeyField  = 1<<31 - 1
)

// ErrKeySpace marks a push past the provenance key's range: more than 2³¹−1
// windows, or pushes onto one LP in one phase of one window.
var ErrKeySpace = errors.New("des: event key space exhausted")

// keyClock is one LP's key state: its last epoch and each phase's next rank.
type keyClock struct {
	epoch int64
	next  [2]int64
}

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
	// direct pushes a cross-LP event at or past the window end straight into
	// its destination's queue (Run); otherwise it goes to a batch.
	direct bool
	// owned is the scheduler's batch for each destination LP. batches holds
	// the ones this window sent into, in first-touch order; batchAt indexes
	// those by destination (nil: untouched this window). Both are drained at
	// the barrier.
	owned   []batch[P]
	batches []*batch[P]
	batchAt []*batch[P]
	err     error
}

// LP returns the logical process the current event executes on.
func (s *Scheduler[P]) LP() int { return s.lp }

// Charge accounts n kernel events (packets) to the current LP in the current
// window.
func (s *Scheduler[P]) Charge(n int64) { s.charges += n }

// Schedule enqueues an event for LP lp at virtual time t. Local events
// (lp == current) may be scheduled at any t >= Now(). Remote events must obey
// the lookahead: t >= current window end. Violations, and a full key space,
// poison the run with an error rather than corrupting causality.
func (s *Scheduler[P]) Schedule(lp int, t float64, data P) {
	if !(t >= s.now) { // NaN included: it would break the queue's order
		s.fail(fmt.Errorf("des: LP %d scheduled event in the past: t=%g < now=%g", s.lp, t, s.now))
		return
	}
	if lp == s.lp {
		if err := s.k.push(lp, t, data, phaseLocal); err != nil {
			s.fail(err)
		}
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
	s.remote++
	if s.direct && t >= s.windowEnd { // LPs send in ascending order: rank = (source, send order)
		if err := s.k.push(lp, t, data, phaseArrival); err != nil {
			s.fail(err)
		}
		return
	}
	b := s.batchAt[lp]
	if b == nil {
		b = &s.owned[lp]
		s.batchAt[lp] = b
		s.batches = append(s.batches, b)
	}
	b.Times = append(b.Times, t)
	b.SrcIdx = append(b.SrcIdx, int32(s.remote-1))
	b.Datas = append(b.Datas, data)
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
	// keys is each LP's key state; epoch is a push's epoch now: the window
	// count, plus one from a window's start until its barrier folds it.
	keys  []keyClock
	epoch int64

	// stats is the cumulative run statistics, live: the window loop folds
	// every window into it, Checkpoint snapshots it and Restore replaces it.
	stats *Stats
	// grid picks Run's windows; Restore re-grids it, so a running loop carries
	// on with the restored lookahead at its next iteration.
	grid Grid
	// driver is the Stepper holding the kernel's LPs (Run's own, or an outside
	// coordinator's), nil when none does.
	driver *Stepper[P]
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
		keys:   make([]keyClock, cfg.NumLPs),
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

// Clone returns a deep copy of the statistics.
func (s *Stats) Clone() Stats {
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
	return k.push(lp, t, data, phaseArrival)
}

// push enqueues an event on LP lp under the next provenance key of phase in
// the current epoch.
func (k *Kernel[P]) push(lp int, t float64, data P, phase int) error {
	c := &k.keys[lp]
	if c.epoch != k.epoch {
		*c = keyClock{epoch: k.epoch}
	}
	rank := c.next[phase]
	if rank > maxKeyField || k.epoch > maxKeyField {
		return fmt.Errorf("%w: push %d of phase %d onto LP %d in epoch %d", ErrKeySpace, rank, phase, lp, k.epoch)
	}
	c.next[phase]++
	k.queues[lp].push(t, k.epoch<<32|int64(phase)<<31|rank, data)
	return nil
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
	for _, s := range st.scheds {
		s.direct = true
	}
	began, wall := time.Now(), k.stats.WallTime

	hook := k.cfg.OnWindow
	var win obs.Window
	for {
		T, end, skipped, ok := k.grid.Next(st.NextEventTime())
		if !ok {
			break
		}
		k.stats.SkippedTime += skipped

		if err := st.exec(end); err != nil {
			return nil, err
		}
		// Barrier: enqueue the sends that landed short of the window end,
		// fold the counters, hand the window's record to the hook.
		if err := st.drain(nil); err != nil {
			return nil, err
		}
		res := st.fold(end)
		if hook == nil {
			continue
		}
		for lp := 0; lp < n; lp++ {
			res.Queue[lp] = int64(k.queues[lp].Len()) // post-barrier here
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

// runWindow drains one LP's queue up to windowEnd. Remote events go to their
// destination's queue or the scheduler's batches (Schedule), and the window's
// counters stay on the scheduler until the barrier folds them.
func (k *Kernel[P]) runWindow(lp int, s *Scheduler[P], windowEnd float64, timed bool) {
	q := &k.queues[lp]
	limit := windowEnd
	if k.cfg.EndTime > 0 {
		limit = min(limit, k.cfg.EndTime)
	}
	if !(q.head() < limit) { // idle this window
		s.events, s.busy = 0, 0
		return
	}
	var begin time.Time
	if timed {
		begin = time.Now()
	}
	s.windowEnd = windowEnd
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
	stats := k.stats
	stats.Events[lp] += events
	stats.Charges[lp] += s.charges
	stats.RemoteSends[lp] += s.remote
	if timed {
		s.busy = time.Since(begin).Seconds()
	}
}

// eventQueue is one LP's pending events, popped in (time, seq) order. It is
// fed a few already-sorted streams — a link direction's chunks fire in the
// order they are sent — so it keeps them as ascending runs: a push joins the
// run whose tail (last key) is the largest at or below its key, found by a
// binary search over tails kept descending, or opens a new run at the end
// when every tail is above it (patience sorting). An emptied run keeps its
// tail and takes the next push that fits. Each non-empty run's first entry
// sits in heads, a min-heap, so the root is the queue's minimum; the rest of
// the run is a FIFO of blocks from the queue's own free list, so nothing is
// copied to grow. Strictly falling pushes make one-entry runs that own no
// block: a plain heap. The heap sifts by moving a hole. Popped slots are not
// cleared (see the package comment on P). DESIGN.md §14 has the argument.
type eventQueue[P any] struct {
	heads []queueHead[P]
	runs  []queueRun[P]
	free  *queueBlock[P]
	n     int
}

// queueHead is a run's earliest pending entry.
type queueHead[P any] struct {
	t    float64
	seq  int64
	data P
	run  int32
}

// queueRun is one ascending run: its tail key, and the blocks holding its
// entries after the head, read from first at read and written to last at
// write. n counts the run's entries, head included (0: not in the heap).
type queueRun[P any] struct {
	t              float64
	seq            int64
	first, last    *queueBlock[P]
	n, read, write int32
}

// blockSize: a short run pays a whole block, and 72 fill its size class.
const blockSize = 72

// queueBlock holds blockSize consecutive entries of one run. next comes first,
// so for a pointer-free P the collector scans one word of it.
type queueBlock[P any] struct {
	next  *queueBlock[P]
	times [blockSize]float64
	seqs  [blockSize]int64
	datas [blockSize]P
}

func (q *eventQueue[P]) Len() int { return q.n }

// head returns the earliest pending event's time, +Inf when there is none.
func (q *eventQueue[P]) head() float64 {
	if len(q.heads) == 0 {
		return math.Inf(1)
	}
	return q.heads[0].t
}

func (q *eventQueue[P]) push(t float64, seq int64, data P) {
	q.n++
	lo, hi := 0, len(q.runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r := &q.runs[m]; r.t > t || r.t == t && r.seq > seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(q.runs) {
		q.runs = append(q.runs, queueRun[P]{})
	}
	r := &q.runs[lo]
	r.t, r.seq = t, seq
	if r.n++; r.n == 1 { // the run's head: sift it up the heap
		q.heads = append(q.heads, queueHead[P]{})
		h, i := q.heads, len(q.heads)-1
		for i > 0 {
			parent := (i - 1) / 2
			if p := &h[parent]; p.t < t || p.t == t && p.seq < seq {
				break
			}
			h[i] = h[parent]
			i = parent
		}
		h[i] = queueHead[P]{t, seq, data, int32(lo)}
		return
	}
	if r.n == 2 || r.write == blockSize { // a first block, or the last is full
		b := q.free
		if b == nil {
			b = new(queueBlock[P])
		} else {
			q.free, b.next = b.next, nil
		}
		if r.n == 2 {
			r.first, r.read = b, 0
		} else {
			r.last.next = b
		}
		r.last, r.write = b, 0
	}
	b, w := r.last, r.write
	b.times[w], b.seqs[w], b.datas[w] = t, seq, data
	r.write++
}

func (q *eventQueue[P]) pop() (float64, P) {
	top := q.heads[0]
	q.n--
	r := &q.runs[top.run]
	var e queueHead[P] // what takes the root's place: the run's next entry, or the heap's last
	if r.n--; r.n == 0 {
		last := len(q.heads) - 1
		e, q.heads = q.heads[last], q.heads[:last]
	} else {
		b, i := r.first, r.read
		e = queueHead[P]{b.times[i], b.seqs[i], b.datas[i], top.run}
		if i++; r.n == 1 || i == blockSize { // b is used up
			r.first, i = b.next, 0
			b.next, q.free = q.free, b
		}
		r.read = i
	}
	h, i := q.heads, 0
	if len(h) == 0 {
		return top.t, top.data
	}
	for child := 1; child < len(h); child = 2*i + 1 {
		if c := child + 1; c < len(h) && (h[c].t < h[child].t || h[c].t == h[child].t && h[c].seq < h[child].seq) {
			child = c
		}
		if c := &h[child]; !(c.t < e.t || c.t == e.t && c.seq < e.seq) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
	return top.t, top.data
}

// export copies the queue's contents out as Events for LP lp (run by run, not
// time order — checkpointing sorts afterwards).
func (q *eventQueue[P]) export(lp int) []Event[P] {
	evs := make([]Event[P], 0, q.n)
	for _, h := range q.heads {
		evs = append(evs, Event[P]{Time: h.t, LP: lp, Data: h.data, seq: h.seq})
		r := &q.runs[h.run]
		b, i := r.first, int(r.read)
		for left := r.n - 1; left > 0; left-- {
			if i == blockSize {
				b, i = b.next, 0
			}
			evs = append(evs, Event[P]{Time: b.times[i], LP: lp, Data: b.datas[i], seq: b.seqs[i]})
			i++
		}
	}
	return evs
}
