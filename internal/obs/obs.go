// Package obs is the kernel-level observability layer: the Window record the
// DES kernel fills once per synchronization window, a recorder interface the
// emulator's window commit fans that record — and every lifecycle event
// (checkpoint, crash, rollback, migration) — out to, plus the standard
// recorders: a deterministic JSONL tracer, an aggregating RunStats collector,
// and a pprof/expvar debug endpoint.
//
// The paper's own PROFILE approach is built on observing real load (§3.3,
// §4); this package generalizes that observation seam: the same per-LP
// per-window counters that explain where a run spends its time are the load
// signal a dynamic-balancing policy consumes.
//
// Design constraints:
//
//   - Zero cost when disabled. A nil Recorder must add no allocations and no
//     measurable work to the emulation hot path; all instrumentation sites
//     guard on the nil interface.
//   - Deterministic traces. Identical scenarios must produce byte-identical
//     JSONL traces, so every field a Trace serializes derives from virtual
//     time and event counts only. The window record carries nothing else.
//   - Single-goroutine delivery. Recorders are invoked only on the
//     coordinating goroutine at window barriers, so simple recorders need no
//     locking. RunStats locks anyway because the debug endpoint reads it
//     concurrently with a live run.
package obs

// RunMeta describes a kernel run segment — one window grid. The emulator
// delivers one before the first window and one right after every checkpoint
// restore (a crash recovery, a resize), which carry Resumed=true: a trace
// therefore shows a recovery as a new run line mid-stream.
type RunMeta struct {
	// LPs is the number of logical processes (simulation-engine nodes).
	LPs int
	// Lookahead is the synchronization window width in virtual seconds.
	Lookahead float64
	// Resumed is true when the segment continues from a restored checkpoint.
	Resumed bool
}

// Window is the record of one executed window: its bounds and per-LP
// counters, filled by the kernel (or summed from worker reports by a
// distributed coordinator) after the barrier and handed, on the coordinating
// goroutine, to the one function that observes windows — the emulator's
// commit, which prices it (Cost) and fans it out to every sink. Every slice
// is a recycled buffer its producer overwrites in place at the next barrier:
// a consumer must copy what it retains, or it reads a later window's values.
type Window struct {
	// Index is the cumulative window number (continues across checkpoint
	// restores; no window repeats an index).
	Index int64
	// Start and End bound the window in virtual time.
	Start, End float64
	// Events[lp] is the number of handler invocations on LP lp.
	Events []int64
	// Charges[lp] is the kernel-event (packet) load accrued on LP lp.
	Charges []int64
	// Remote[lp] counts cross-LP event messages LP lp sent this window —
	// the kernel's channel-message (null-message analogue) traffic.
	Remote []int64
	// Queue[lp] is LP lp's pending-event queue length after the barrier
	// merge — the channel occupancy entering the next window.
	Queue []int64
	// Cost[lp] is the modeled seconds of engine work LP lp's counters stand
	// for under the run's cost model, straggler and degradation factors
	// included — deterministic. Nil until the emulator's commit prices the
	// window; the Timeline reads it, Trace does not serialize it.
	Cost []float64
}

// EventKind classifies lifecycle events.
type EventKind uint8

// Lifecycle event kinds emitted by the emulator's resilience layer.
const (
	// EventCheckpoint marks a barrier checkpoint. Time is the barrier.
	EventCheckpoint EventKind = iota
	// EventCrash marks a detected engine failure. LP is the dead engine,
	// Time the detection barrier, Value the virtual fail-stop time.
	EventCrash
	// EventRollback marks a crash recovery's charge. LP is the dead engine,
	// Time the cadence barrier charged from, Value the number of windows
	// since it (lost on a real cluster, run once here).
	EventRollback
	// EventMigration reports recovery migrations onto one engine. LP is the
	// destination engine, Time the barrier, Value the node count.
	EventMigration
	// EventResize marks an applied elastic membership change. Time is the
	// barrier it was applied at, LP is -1, Value the new engine-set size.
	EventResize
	// EventJoin marks a worker joining a distributed run. LP is the first
	// engine the joiner activates, Time the barrier it was admitted at.
	EventJoin
	// EventDrain marks a worker leaving a distributed run gracefully. LP is
	// the first engine the leaver deactivates, Time the hand-off barrier.
	EventDrain
	// EventHeartbeatMiss marks a liveness probe going unanswered. LP is the
	// silent worker's first engine, Value the consecutive miss count.
	EventHeartbeatMiss
)

var eventKindNames = [...]string{"checkpoint", "crash", "rollback", "migration",
	"resize", "join", "drain", "heartbeat-miss"}

// String names the kind as it appears in traces.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one discrete lifecycle record.
type Event struct {
	Kind EventKind
	// Time is the virtual time of the event.
	Time float64
	// LP is the engine concerned, -1 when not engine-specific.
	LP int
	// Value is kind-specific (see the EventKind constants).
	Value float64
}

// Recorder receives observability callbacks. Implementations are invoked on
// a single goroutine per run; Window slices are reused between calls.
type Recorder interface {
	// RecordRun announces a kernel run segment.
	RecordRun(m RunMeta)
	// RecordWindow delivers one executed window's counters.
	RecordWindow(w Window)
	// RecordEvent delivers one lifecycle event.
	RecordEvent(e Event)
}

// multi fans callbacks out to several recorders in order.
type multi []Recorder

func (m multi) RecordRun(meta RunMeta) {
	for _, r := range m {
		r.RecordRun(meta)
	}
}

func (m multi) RecordWindow(w Window) {
	for _, r := range m {
		r.RecordWindow(w)
	}
}

func (m multi) RecordEvent(e Event) {
	for _, r := range m {
		r.RecordEvent(e)
	}
}

// Multi combines recorders, skipping nils. It returns nil when none remain
// (so a fully-disabled chain keeps the zero-cost nil fast path), and the
// recorder itself when exactly one remains.
func Multi(rs ...Recorder) Recorder {
	var kept multi
	for _, r := range rs {
		if r != nil {
			kept = append(kept, r)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}
