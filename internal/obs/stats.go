package obs

import (
	"fmt"
	"strings"
	"sync"
)

// RunStats aggregates a run's observability stream into per-LP totals — the
// summary attached to emu.Result (and through it core.Outcome). It is itself
// a Recorder, so it can ride any recorder chain.
//
// Every window executes once: a crash recovery charges the windows since the
// last cadence barrier as lost without re-running them, and ReplayedWindows
// counts that charge.
//
// Methods lock internally: the kernel writes from its coordinating goroutine
// while the expvar debug endpoint may read a live run concurrently.
type RunStats struct {
	mu sync.Mutex

	// LPs is the number of logical processes (engines).
	LPs int
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
	// BarrierWait is the accumulated wall-clock barrier wait per LP in
	// seconds (zero under the sequential kernel). Nondeterministic.
	BarrierWait []float64
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

// NewRunStats returns an empty collector.
func NewRunStats() *RunStats { return &RunStats{} }

func (s *RunStats) grow(n int) {
	if n <= s.LPs {
		return
	}
	s.LPs = n
	s.Events = growInts(s.Events, n)
	s.Charges = growInts(s.Charges, n)
	s.Remote = growInts(s.Remote, n)
	s.MaxQueue = growInts(s.MaxQueue, n)
	s.MigratedNodes = growInts(s.MigratedNodes, n)
	s.Joins = growInts(s.Joins, n)
	s.Drains = growInts(s.Drains, n)
	s.Kills = growInts(s.Kills, n)
	for len(s.BarrierWait) < n {
		s.BarrierWait = append(s.BarrierWait, 0)
	}
}

func growInts(xs []int64, n int) []int64 {
	for len(xs) < n {
		xs = append(xs, 0)
	}
	return xs
}

// RecordRun implements Recorder.
func (s *RunStats) RecordRun(m RunMeta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.grow(m.LPs)
	s.Segments++
}

// RecordWindow implements Recorder.
func (s *RunStats) RecordWindow(w Window) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.grow(len(w.Events))
	s.Windows++
	for lp := range w.Events {
		s.Events[lp] += w.Events[lp]
		s.Charges[lp] += w.Charges[lp]
		s.Remote[lp] += w.Remote[lp]
		if w.Queue[lp] > s.MaxQueue[lp] {
			s.MaxQueue[lp] = w.Queue[lp]
		}
		s.BarrierWait[lp] += w.Wait[lp]
	}
}

// RecordEvent implements Recorder.
func (s *RunStats) RecordEvent(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case EventCheckpoint:
		s.Checkpoints++
	case EventCrash:
		s.Crashes++
	case EventRollback:
		s.Rollbacks++
		s.ReplayedWindows += int64(e.Value)
	case EventMigration:
		if e.LP >= 0 {
			s.grow(e.LP + 1)
			s.MigratedNodes[e.LP] += int64(e.Value)
		}
	case EventResize:
		s.Resizes++
		if n := int64(e.Value); n > s.PeakEngines {
			s.PeakEngines = n
		}
	case EventJoin:
		if e.LP >= 0 {
			s.grow(e.LP + 1)
			s.Joins[e.LP]++
		}
	case EventDrain:
		if e.LP >= 0 {
			s.grow(e.LP + 1)
			s.Drains[e.LP]++
		}
	case EventHeartbeatMiss:
		if e.LP >= 0 {
			s.grow(e.LP + 1)
			s.Kills[e.LP]++
		}
	}
}

// NoteClusterSize records an observed active engine-set size so PeakEngines
// covers the initial membership, not just resizes.
func (s *RunStats) NoteClusterSize(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int64(n) > s.PeakEngines {
		s.PeakEngines = int64(n)
	}
}

// TotalEvents sums handler invocations over all LPs.
func (s *RunStats) TotalEvents() int64 { return sumLocked(s, &s.Events) }

// TotalCharges sums the kernel-event load over all LPs.
func (s *RunStats) TotalCharges() int64 { return sumLocked(s, &s.Charges) }

// TotalRemote sums cross-LP event messages over all LPs.
func (s *RunStats) TotalRemote() int64 { return sumLocked(s, &s.Remote) }

// TotalMigrations sums recovery migrations over all engines.
func (s *RunStats) TotalMigrations() int64 { return sumLocked(s, &s.MigratedNodes) }

// sumLocked takes the field's address, not its value: grow may reallocate
// the slice, so its header is read only under the lock.
func sumLocked(s *RunStats, xs *[]int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, x := range *xs {
		t += x
	}
	return t
}

// TotalBarrierWait sums the wall-clock barrier wait over all LPs, in
// seconds.
func (s *RunStats) TotalBarrierWait() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t float64
	for _, w := range s.BarrierWait {
		t += w
	}
	return t
}

// Snapshot returns a consistent copy safe to read while the run continues.
func (s *RunStats) Snapshot() *RunStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &RunStats{
		LPs:             s.LPs,
		Segments:        s.Segments,
		Windows:         s.Windows,
		Events:          append([]int64(nil), s.Events...),
		Charges:         append([]int64(nil), s.Charges...),
		Remote:          append([]int64(nil), s.Remote...),
		MaxQueue:        append([]int64(nil), s.MaxQueue...),
		BarrierWait:     append([]float64(nil), s.BarrierWait...),
		Checkpoints:     s.Checkpoints,
		Crashes:         s.Crashes,
		Rollbacks:       s.Rollbacks,
		ReplayedWindows: s.ReplayedWindows,
		MigratedNodes:   append([]int64(nil), s.MigratedNodes...),
		Joins:           append([]int64(nil), s.Joins...),
		Drains:          append([]int64(nil), s.Drains...),
		Kills:           append([]int64(nil), s.Kills...),
		Resizes:         s.Resizes,
		PeakEngines:     s.PeakEngines,
	}
}

// String renders a compact human-readable summary.
func (s *RunStats) String() string {
	c := s.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "windows %d (replayed %d), events %d, kernel-events %d, remote %d",
		c.Windows, c.ReplayedWindows, sum(c.Events), sum(c.Charges), sum(c.Remote))
	if mq := maxOf(c.MaxQueue); mq > 0 {
		fmt.Fprintf(&b, ", max queue %d", mq)
	}
	if w := totalFloat(c.BarrierWait); w > 0 {
		fmt.Fprintf(&b, ", barrier wait %.3fs", w)
	}
	if c.Checkpoints > 0 || c.Crashes > 0 {
		fmt.Fprintf(&b, "; recovery: %d checkpoint(s), %d crash(es), %d rollback(s), %d node(s) migrated",
			c.Checkpoints, c.Crashes, c.Rollbacks, sum(c.MigratedNodes))
	}
	if c.Resizes > 0 || sum(c.Joins)+sum(c.Drains)+sum(c.Kills) > 0 {
		fmt.Fprintf(&b, "; elastic: %d join(s), %d drain(s), %d kill(s), %d resize(s), peak cluster %d engine(s)",
			sum(c.Joins), sum(c.Drains), sum(c.Kills), c.Resizes, c.PeakEngines)
	}
	return b.String()
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
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

func totalFloat(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
