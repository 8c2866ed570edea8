package des

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
)

// ---- Error paths: invalid scheduling poisons the run with an error ----

func TestRunErrorsOnLookaheadViolation(t *testing.T) {
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		// Remote event inside the current window: a lookahead violation.
		s.Schedule(1, tm+0.1, nil)
	}
	k, _ := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: h})
	k.Schedule(0, 0.2, nil)
	if _, err := k.Run(); err == nil {
		t.Fatal("lookahead violation did not error")
	} else if !strings.Contains(err.Error(), "lookahead") {
		t.Errorf("error %q does not mention lookahead", err)
	}
}

func TestRunErrorsOnInvalidTargetLP(t *testing.T) {
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		s.Schedule(99, tm+5, nil)
	}
	k, _ := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: h})
	k.Schedule(0, 0.2, nil)
	if _, err := k.Run(); err == nil {
		t.Fatal("invalid target LP did not error")
	} else if !strings.Contains(err.Error(), "invalid LP") {
		t.Errorf("error %q does not mention invalid LP", err)
	}
}

func TestRunErrorsOnPastEvent(t *testing.T) {
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		s.Schedule(lp, tm-0.5, nil)
	}
	k, _ := New(Config[any]{NumLPs: 1, Lookahead: 1, Handler: h})
	k.Schedule(0, 0.7, nil)
	if _, err := k.Run(); err == nil {
		t.Fatal("past-scheduled event did not error")
	} else if !strings.Contains(err.Error(), "past") {
		t.Errorf("error %q does not mention the past", err)
	}
}

func TestFirstErrorWinsPerLP(t *testing.T) {
	// One LP commits two violations in the same window; the run must report
	// the first (Scheduler.fail keeps the first error).
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		s.Schedule(lp, tm-1, nil)  // first: past event
		s.Schedule(42, tm+10, nil) // second: invalid LP
	}
	k, _ := New(Config[any]{NumLPs: 1, Lookahead: 1, Handler: h})
	k.Schedule(0, 0.5, nil)
	_, err := k.Run()
	if err == nil {
		t.Fatal("violations did not error")
	}
	if !strings.Contains(err.Error(), "past") {
		t.Errorf("got %q, want the first violation (past event)", err)
	}
}

func TestErrorStopsFurtherHandling(t *testing.T) {
	// After an LP poisons itself, its remaining events in the window are not
	// handled.
	var handled int
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		handled++
		s.Schedule(lp, tm-1, nil)
	}
	k, _ := New(Config[any]{NumLPs: 1, Lookahead: 10, Handler: h})
	k.Schedule(0, 0.1, nil)
	k.Schedule(0, 0.2, nil)
	k.Schedule(0, 0.3, nil)
	if _, err := k.Run(); err == nil {
		t.Fatal("want error")
	}
	if handled != 1 {
		t.Errorf("handled %d events after poisoning, want 1", handled)
	}
}

// ---- OnWindow errors ----

func TestOnWindowErrorStopsRun(t *testing.T) {
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		s.Charge(1)
		if tm < 10 {
			s.Schedule(lp, tm+1, nil)
		}
	}
	stop := errors.New("stop here")
	var barriers int
	k, _ := New(Config[any]{
		NumLPs: 1, Lookahead: 1, Handler: h,
		OnWindow: func(*obs.Window) error {
			barriers++
			if barriers == 3 {
				return stop
			}
			return nil
		},
	})
	k.Schedule(0, 0.5, nil)
	stats, err := k.Run()
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the OnWindow error", err)
	}
	if stats == nil {
		t.Fatal("stats-so-far not returned alongside the hook error")
	}
	if stats.Windows != 3 {
		t.Errorf("Windows = %d, want 3 (stopped at third barrier)", stats.Windows)
	}
}

// ---- Checkpoint / Restore ----

// chain bounces an event between two LPs, charging one unit per hop.
func chainHandler(until float64) Handler[any] {
	return func(lp int, tm float64, data any, s *Scheduler[any]) {
		s.Charge(1)
		if tm >= until {
			return
		}
		s.Schedule(1-lp, tm+1, nil)
	}
}

func TestCheckpointRestoreReplaysIdentically(t *testing.T) {
	mk := func() *Kernel[any] {
		k, err := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: chainHandler(20)})
		if err != nil {
			t.Fatal(err)
		}
		k.Schedule(0, 0.5, nil)
		return k
	}

	// Reference: run to completion without interruption.
	ref, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: stop at a mid-run barrier, checkpoint, restore, resume.
	var cp *Checkpoint[any]
	stop := errors.New("interrupt")
	k, _ := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: chainHandler(20)})
	k.cfg.OnWindow = func(w *obs.Window) error {
		if w.End >= 8 && cp == nil {
			cp = k.Checkpoint()
			return stop
		}
		return nil
	}
	k.Schedule(0, 0.5, nil)
	if _, err := k.Run(); !errors.Is(err, stop) {
		t.Fatalf("err = %v, want interrupt", err)
	}
	if cp == nil || cp.PendingEvents() == 0 {
		t.Fatal("checkpoint empty")
	}
	k.cfg.OnWindow = nil
	if err := k.Restore(cp, 0, nil); err != nil {
		t.Fatal(err)
	}
	got, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}

	if got.VirtualEnd != ref.VirtualEnd {
		t.Errorf("VirtualEnd = %g, want %g", got.VirtualEnd, ref.VirtualEnd)
	}
	for lp := 0; lp < 2; lp++ {
		if got.Events[lp] != ref.Events[lp] {
			t.Errorf("LP %d Events = %d, want %d", lp, got.Events[lp], ref.Events[lp])
		}
		if got.Charges[lp] != ref.Charges[lp] {
			t.Errorf("LP %d Charges = %d, want %d", lp, got.Charges[lp], ref.Charges[lp])
		}
	}
}

func TestRestoreRemapMovesEvents(t *testing.T) {
	// Checkpoint before Run, then remap every event onto LP 0 and verify LP 1
	// never executes.
	events := make([]int64, 2)
	h := func(lp int, tm float64, data any, s *Scheduler[any]) { events[lp]++ }
	k, _ := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: h})
	k.Schedule(0, 0.5, nil)
	k.Schedule(1, 0.6, nil)
	cp := k.Checkpoint()
	if err := k.Restore(cp, 0, func(ev Event[any]) (int, bool) { return 0, true }); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if events[0] != 2 || events[1] != 0 {
		t.Errorf("events = %v, want all on LP 0", events)
	}
}

func TestRestoreRemapDropsEvents(t *testing.T) {
	var handled int64
	h := func(lp int, tm float64, data any, s *Scheduler[any]) { handled++ }
	k, _ := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: h})
	k.Schedule(0, 0.5, nil)
	k.Schedule(1, 0.6, nil)
	cp := k.Checkpoint()
	drop := func(ev Event[any]) (int, bool) { return ev.LP, ev.LP == 0 }
	if err := k.Restore(cp, 0, drop); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != 1 {
		t.Errorf("handled = %d, want 1 (LP 1's event dropped)", handled)
	}
}

func TestRestoreRejectsInvalidRemap(t *testing.T) {
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {}
	k, _ := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: h})
	k.Schedule(0, 0.5, nil)
	cp := k.Checkpoint()
	if err := k.Restore(cp, 0, func(Event[any]) (int, bool) { return 7, true }); err == nil {
		t.Error("out-of-range remap accepted")
	}
}

func TestRestoreChangesLookahead(t *testing.T) {
	// Restoring with a wider lookahead must widen the windows (fewer
	// barriers for the same span).
	mkRun := func(newL float64) int64 {
		h := func(lp int, tm float64, data any, s *Scheduler[any]) {
			if tm < 10 {
				s.Schedule(lp, tm+0.5, nil)
			}
		}
		k, _ := New(Config[any]{NumLPs: 1, Lookahead: 1, Handler: h})
		k.Schedule(0, 0.25, nil)
		cp := k.Checkpoint()
		if err := k.Restore(cp, newL, nil); err != nil {
			panic(err)
		}
		stats, err := k.Run()
		if err != nil {
			panic(err)
		}
		return stats.Windows
	}
	narrow := mkRun(0) // keep L=1
	wide := mkRun(5)
	if wide >= narrow {
		t.Errorf("windows with L=5 (%d) not fewer than with L=1 (%d)", wide, narrow)
	}
}

func TestStatsContinueAcrossRestore(t *testing.T) {
	// A run resumed from a mid-run checkpoint reports cumulative statistics,
	// not just the tail segment's.
	var cp *Checkpoint[any]
	stop := errors.New("interrupt")
	k, _ := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: chainHandler(10)})
	k.cfg.OnWindow = func(w *obs.Window) error {
		if w.End >= 5 && cp == nil {
			cp = k.Checkpoint()
			return stop
		}
		return nil
	}
	k.Schedule(0, 0.5, nil)
	if _, err := k.Run(); !errors.Is(err, stop) {
		t.Fatal("expected interrupt")
	}
	cpEvents := cp.stats.Events[0] + cp.stats.Events[1]
	if cpEvents == 0 {
		t.Fatal("checkpoint recorded no events")
	}
	k.cfg.OnWindow = nil
	if err := k.Restore(cp, 0, nil); err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := stats.Events[0] + stats.Events[1]
	if total <= cpEvents {
		t.Errorf("cumulative events %d not beyond checkpoint's %d", total, cpEvents)
	}
	// The full chain handles one event per virtual second up to t=10 plus the
	// final bounce; an uninterrupted run gives the same total.
	ref, _ := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: chainHandler(10)})
	ref.Schedule(0, 0.5, nil)
	rs, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := rs.Events[0] + rs.Events[1]; total != want {
		t.Errorf("cumulative events = %d, want %d", total, want)
	}
}
