package obs

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// RunStats is a run's observability summary — per-LP totals and lifecycle
// counts — attached to emu.Result (and through it core.Outcome). The
// emulator fills it on the coordinating goroutine: the lifecycle counts and
// MaxQueue as the run goes, through the nil-safe Note methods, and Windows,
// Events, Charges and Remote once at the end, from the kernel statistics the
// run keeps anyway.
//
// Every window executes once: a crash recovery charges the windows since the
// last cadence barrier as lost without re-running them, and ReplayedWindows
// counts that charge.
type RunStats struct {
	// Segments counts window grids (1 + resumes after a crash or resize).
	Segments int
	// Windows is the number of executed windows.
	Windows int64
	// Events, Charges and Remote are per-LP totals over all executed
	// windows (handler invocations, kernel-event load, cross-LP sends).
	Events, Charges, Remote []int64
	// MaxQueue is the maximum post-barrier pending-event queue length
	// observed per LP — peak channel occupancy.
	MaxQueue []int64
	// Checkpoints, Crashes and Rollbacks count recovery lifecycle events.
	Checkpoints, Crashes, Rollbacks int64
	// ReplayedWindows is the number of windows crash recoveries charged as
	// lost: what a real cluster would re-run from its last checkpoint.
	ReplayedWindows int64
	// MigratedNodes[lp] is the number of virtual nodes recovery moved onto
	// engine lp.
	MigratedNodes []int64

	// Joins, Drains and Kills count elastic membership churn per LP — the
	// first engine each joining/draining/killed worker (de)activates, as
	// carried by EventJoin/EventDrain/EventHeartbeatMiss.
	Joins, Drains, Kills []int64
	// Resizes counts applied membership changes; PeakEngines is the largest
	// active engine set observed across them.
	Resizes, PeakEngines int64
}

// NewRunStats returns an empty summary of a run over lps engines.
func NewRunStats(lps int) *RunStats {
	return &RunStats{
		MaxQueue:      make([]int64, lps),
		MigratedNodes: make([]int64, lps),
		Joins:         make([]int64, lps),
		Drains:        make([]int64, lps),
		Kills:         make([]int64, lps),
	}
}

// NoteSegment counts one window grid. A nil summary ignores it, as do the
// other Note methods.
func (s *RunStats) NoteSegment() {
	if s != nil {
		s.Segments++
	}
}

// NoteQueue raises MaxQueue to one window's post-barrier queue lengths.
func (s *RunStats) NoteQueue(queue []int64) {
	if s == nil {
		return
	}
	for lp, q := range queue {
		s.MaxQueue[lp] = max(s.MaxQueue[lp], q)
	}
}

// NoteEvent counts one lifecycle event. Every kind that names an engine
// (see the EventKind constants) carries one in [0, LPs).
func (s *RunStats) NoteEvent(e Event) {
	if s == nil {
		return
	}
	switch e.Kind {
	case EventCheckpoint:
		s.Checkpoints++
	case EventCrash:
		s.Crashes++
	case EventRollback:
		s.Rollbacks++
		s.ReplayedWindows += int64(e.Value)
	case EventMigration:
		s.MigratedNodes[e.LP] += int64(e.Value)
	case EventResize:
		s.Resizes++
		s.NoteClusterSize(int(e.Value))
	case EventJoin:
		s.Joins[e.LP]++
	case EventDrain:
		s.Drains[e.LP]++
	case EventHeartbeatMiss:
		s.Kills[e.LP]++
	}
}

// NoteClusterSize records an observed active engine-set size so PeakEngines
// covers the initial membership, not just resizes.
func (s *RunStats) NoteClusterSize(n int) {
	if s != nil {
		s.PeakEngines = max(s.PeakEngines, int64(n))
	}
}

// TotalBarrierWait returns 0. The kernel runs every window on one goroutine,
// so no LP waits at a barrier; the method stays only for callers written
// against the in-process parallel kernel, and goes with them.
func (s *RunStats) TotalBarrierWait() float64 { return 0 }

// String renders a compact human-readable summary.
func (s *RunStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "windows %d (replayed %d), events %d, kernel-events %d, remote %d",
		s.Windows, s.ReplayedWindows, metrics.Sum(s.Events), metrics.Sum(s.Charges), metrics.Sum(s.Remote))
	if mq := maxOf(s.MaxQueue); mq > 0 {
		fmt.Fprintf(&b, ", max queue %d", mq)
	}
	if s.Checkpoints > 0 || s.Crashes > 0 {
		fmt.Fprintf(&b, "; recovery: %d checkpoint(s), %d crash(es), %d rollback(s), %d node(s) migrated",
			s.Checkpoints, s.Crashes, s.Rollbacks, metrics.Sum(s.MigratedNodes))
	}
	if s.Resizes > 0 || metrics.Sum(s.Joins)+metrics.Sum(s.Drains)+metrics.Sum(s.Kills) > 0 {
		fmt.Fprintf(&b, "; elastic: %d join(s), %d drain(s), %d kill(s), %d resize(s), peak cluster %d engine(s)",
			metrics.Sum(s.Joins), metrics.Sum(s.Drains), metrics.Sum(s.Kills), s.Resizes, s.PeakEngines)
	}
	return b.String()
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
