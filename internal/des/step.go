package des

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// The window dispatcher. A Stepper holds a set of a kernel's LPs and executes
// them one window at a time, in LP order on the caller's goroutine, for
// whoever walks the Grid: Kernel.Run holds all of them; a distributed worker
// holds the engines assigned to its process and steps under an outside
// coordinator, which collects NextEventTime votes from every worker, picks the
// global window on its own Grid, calls Step on each, merges the outboxes in
// (time, source LP, send order) order, and hands each worker back its share
// through Inject. Each destination then ranks the arrivals in the (source LP,
// send order) order Run's ascending LP loop sends them in, so a stepped
// execution is event-for-event identical to Run.

// ErrCausality marks a window or an injected event an outside coordinator
// handed a Stepper that would break the conservative protocol: a window that
// is not a finite forward step of at most the lookahead, or an event in an
// LP's executed past. Nothing is executed or enqueued when it is returned.
var ErrCausality = errors.New("des: causality violation")

// Sent is a cross-LP event captured at a Stepper barrier, tagged with its
// merge key: sending LP and position in that LP's outbox.
type Sent[P any] struct {
	// Time is the event's virtual firing time.
	Time float64
	// Dst is the destination LP.
	Dst int
	// Data is the payload.
	Data P
	// Src is the sending LP; SrcIdx its send order within the window.
	Src    int
	SrcIdx int
}

// StepResult reports one executed window. The slices are indexed by LP over
// the full kernel (non-local slots stay zero) and are reused across Step
// calls — copy them if retained.
type StepResult[P any] struct {
	// Events, Charges and Remote are this window's per-LP handler
	// invocations, kernel-event charges, and cross-LP sends.
	Events  []int64
	Charges []int64
	Remote  []int64
	// Queue is the post-window (pre-merge) pending-event count per LP.
	Queue []int64
	// Outbox holds the window's cross-LP events flattened from the kernel's
	// per-destination batches: grouped by (source LP, destination) in batch
	// first-touch order, unsorted. The coordinator merges outboxes from all
	// Steppers globally and must sort them into merge order (time, sending
	// LP, send order; emu.SortWire does it on the wire form) before
	// injecting.
	Outbox []Sent[P]
	// Busy is the measured wall-clock seconds each local LP spent executing
	// the window. Nil unless EnableTiming was called — the tracing hot path
	// stays allocation- and syscall-free when tracing is off.
	Busy []float64
}

// Stepper drives a subset of a kernel's LPs one window at a time. Create
// with Kernel.Stepper, seed initial events through Kernel.Schedule first, and
// Close it when done: it holds its LPs until then.
type Stepper[P any] struct {
	k       *Kernel[P]
	local   []int
	isLocal []bool
	scheds  []*Scheduler[P] // indexed by LP; nil for non-local LPs
	res     StepResult[P]
	timing  bool
	// failed poisons the Stepper: a handler error, or Close.
	failed error

	// lastEnd is the end of the last window executed on these LPs (the
	// restored barrier time before the first): nothing may be injected before
	// it. stepped says a window has run since the Stepper was made.
	lastEnd float64
	stepped bool
}

// EnableTiming turns on per-LP wall-clock measurement of window execution:
// after each Step, StepResult.Busy[lp] holds the seconds LP lp spent in
// runWindow. Off by default; the disabled path takes no clock readings and
// performs no extra allocations. Call it before the first Step.
func (st *Stepper[P]) EnableTiming() {
	if !st.timing {
		st.timing = true
		st.res.Busy = make([]float64, st.k.cfg.NumLPs)
	}
}

// Stepper claims the given LPs — a non-empty set of distinct valid LPs — for
// window-by-window driving until the Stepper is Closed; a kernel has one
// driver at a time. OnWindow belongs to Run's barrier and is not called by
// Step. Statistics continue from the kernel's: a worker reseated on a restored
// kernel reports run totals, not post-migration deltas.
func (k *Kernel[P]) Stepper(local []int) (*Stepper[P], error) {
	if k.driver != nil {
		return nil, fmt.Errorf("des: kernel is already driven by a Stepper (Close it first)")
	}
	if len(local) == 0 {
		return nil, fmt.Errorf("des: Stepper needs at least one local LP")
	}
	n := k.cfg.NumLPs
	st := &Stepper[P]{
		k:       k,
		local:   append([]int(nil), local...),
		isLocal: make([]bool, n),
		scheds:  make([]*Scheduler[P], n),
		res: StepResult[P]{
			Events:  make([]int64, n),
			Charges: make([]int64, n),
			Remote:  make([]int64, n),
			Queue:   make([]int64, n),
		},
		lastEnd: k.stats.VirtualEnd,
	}
	sort.Ints(st.local)
	for _, lp := range st.local {
		if lp < 0 || lp >= n {
			return nil, fmt.Errorf("des: Stepper local LP %d out of range [0,%d)", lp, n)
		}
		if st.isLocal[lp] {
			return nil, fmt.Errorf("des: Stepper local LP %d listed twice", lp)
		}
		st.isLocal[lp] = true
		s := &Scheduler[P]{k: k, lp: lp, owned: make([]batch[P], n), batchAt: make([]*batch[P], n)}
		for dst := range s.owned {
			s.owned[dst].Dst = dst
		}
		st.scheds[lp] = s
	}
	k.driver = st
	return st, nil
}

// Close releases the kernel for another driver. Every later Step fails.
// Closing twice is harmless.
func (st *Stepper[P]) Close() {
	if st.k.driver != st {
		return
	}
	st.k.driver = nil
	if st.failed == nil {
		st.failed = fmt.Errorf("des: Stepper is closed")
	}
}

// NextEventTime returns the earliest pending event time across the local
// LPs — the Stepper's barrier vote. ok is false when all local queues are
// empty.
func (st *Stepper[P]) NextEventTime() (float64, bool) {
	best := math.Inf(1)
	found := false
	queues := st.k.queues
	for _, lp := range st.local {
		if t := queues[lp].head(); t < best {
			best = t
			found = true
		}
	}
	return best, found
}

// exec is the one window dispatch: it runs every local LP up to end, in LP
// order on the caller's goroutine, and stops at the first handler error,
// which also poisons the Stepper. The window's counters and outgoing batches
// stay on the schedulers for the caller's barrier.
func (st *Stepper[P]) exec(end float64) error {
	if st.failed != nil {
		return st.failed
	}
	st.k.epoch = st.k.stats.Windows + 1
	for _, lp := range st.local {
		s := st.scheds[lp]
		st.k.runWindow(lp, s, end, st.timing)
		if s.err != nil {
			st.failed = s.err
			return s.err
		}
	}
	return nil
}

// drain empties the window's batches, sources ascending and each in send
// order: onto out when it is non-nil (Step's outbox), else into their
// destination queues as arrivals — under Run, the sends that landed within
// lookaheadSlack short of the window end, which a destination running later in
// the window would otherwise have popped.
func (st *Stepper[P]) drain(out *[]Sent[P]) error {
	for _, lp := range st.local {
		s := st.scheds[lp]
		for _, b := range s.batches {
			for i, t := range b.Times {
				if out != nil {
					*out = append(*out, Sent[P]{Time: t, Dst: b.Dst, Data: b.Datas[i], Src: lp, SrcIdx: int(b.SrcIdx[i])})
				} else if err := st.k.push(b.Dst, t, b.Datas[i], phaseArrival); err != nil {
					return err
				}
			}
			s.batchAt[b.Dst] = nil
			b.reset()
		}
		s.batches = s.batches[:0]
	}
	return nil
}

// fold closes the window at the barrier: the schedulers' per-window counters
// move into the reused StepResult and the window is counted.
func (st *Stepper[P]) fold(end float64) *StepResult[P] {
	res, scheds := &st.res, st.scheds
	for _, lp := range st.local {
		s := scheds[lp]
		res.Events[lp], res.Charges[lp], res.Remote[lp] = s.events, s.charges, s.remote
		s.charges, s.remote = 0, 0
		if st.timing {
			res.Busy[lp] = s.busy
		}
	}
	stats := st.k.stats
	stats.Windows++
	stats.VirtualEnd = end
	st.lastEnd, st.stepped = end, true
	return res
}

// Step executes one window [T, end) on every local LP and returns the
// window's per-LP counters and outbox. The window must be a finite forward
// step no wider than the kernel's lookahead, starting at or after the previous
// window's end (except the first after creation: a re-gridded coordinator may
// align it below the barrier it resumed from); anything else returns
// ErrCausality and executes nothing. A handler error poisons the Stepper:
// Step returns it now and on every later call.
func (st *Stepper[P]) Step(T, end float64) (*StepResult[P], error) {
	L := st.k.grid.Lookahead
	switch {
	case !(T >= 0) || math.IsInf(end, 0) || !(end > T):
		return nil, fmt.Errorf("%w: window [%g,%g) is not a finite forward interval", ErrCausality, T, end)
	case end > T+L:
		return nil, fmt.Errorf("%w: window [%g,%g) is wider than the lookahead %g", ErrCausality, T, end, L)
	case st.stepped && T < st.lastEnd:
		return nil, fmt.Errorf("%w: window [%g,%g) starts before the previous window's end %g", ErrCausality, T, end, st.lastEnd)
	}
	if err := st.exec(end); err != nil {
		return nil, err
	}
	res := st.fold(end)
	res.Outbox = res.Outbox[:0]
	for _, lp := range st.local {
		res.Queue[lp] = int64(st.k.queues[lp].Len())
	}
	return res, st.drain(&res.Outbox) // appending cannot fail
}

// Inject pushes barrier-merged events into local queues as the last window's
// arrivals, which the coordinator must pass in the global merge order —
// (time, Src, SrcIdx) ascending — to rank them as Run ranks its sends. An
// event for an LP the Stepper does not hold, one that would fire before the
// last executed window's end (ErrCausality), or a batch that could exhaust a
// destination's key space (ErrKeySpace) rejects the whole batch: nothing is
// enqueued.
func (st *Stepper[P]) Inject(evs []Sent[P]) error {
	k := st.k
	for _, sv := range evs {
		if sv.Dst < 0 || sv.Dst >= k.cfg.NumLPs || !st.isLocal[sv.Dst] {
			return fmt.Errorf("des: injected event at t=%g for non-local LP %d", sv.Time, sv.Dst)
		}
		if !(sv.Time >= st.lastEnd-lookaheadSlack) {
			return fmt.Errorf("%w: injected event for LP %d at t=%g, before the executed window end %g",
				ErrCausality, sv.Dst, sv.Time, st.lastEnd)
		}
		used := int64(0)
		if c := k.keys[sv.Dst]; c.epoch == k.epoch {
			used = c.next[phaseArrival]
		}
		if k.epoch > maxKeyField || used+int64(len(evs)) > maxKeyField+1 {
			return fmt.Errorf("%w: %d events injected onto LP %d in epoch %d", ErrKeySpace, len(evs), sv.Dst, k.epoch)
		}
	}
	for _, sv := range evs {
		_ = k.push(sv.Dst, sv.Time, sv.Data, phaseArrival) // cannot fail: checked above
	}
	return nil
}
