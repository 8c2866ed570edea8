package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/mapping"
	"repro/internal/obs"
)

// TestScenarioCollectStats checks the observability plumbing through the
// pipeline: CollectStats attaches a RunStats whose totals agree with the
// kernel's own statistics.
func TestScenarioCollectStats(t *testing.T) {
	sc := campusScenario(false)
	sc.CollectStats = true
	o, err := sc.Run(context.Background(), mapping.Top)
	if err != nil {
		t.Fatal(err)
	}
	st := o.Result.Obs
	if st == nil {
		t.Fatal("CollectStats did not attach Result.Obs")
	}
	var kernelEvents, got int64
	for _, n := range o.Result.Kernel.Events {
		kernelEvents += n
	}
	for _, n := range st.Events {
		got += n
	}
	if got != kernelEvents {
		t.Errorf("obs events = %d, kernel counted %d", got, kernelEvents)
	}
	if st.Windows != o.Result.Kernel.Windows {
		t.Errorf("obs windows = %d, kernel counted %d", st.Windows, o.Result.Kernel.Windows)
	}
}

// TestScenarioRecorderTraceDeterministic drives a JSONL trace through the
// whole pipeline twice (PROFILE: profiling pre-run + final run share the
// recorder) and requires byte-identical output.
func TestScenarioRecorderTraceDeterministic(t *testing.T) {
	emit := func() string {
		var buf bytes.Buffer
		tr := obs.NewTrace(&buf)
		sc := campusScenario(false)
		sc.Recorder = tr
		if _, err := sc.Run(context.Background(), mapping.Profile); err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := emit(), emit()
	if a == "" {
		t.Fatal("empty trace")
	}
	if a != b {
		t.Fatal("identical PROFILE pipelines produced different traces")
	}
	// Two kernel runs feed one trace: the profiling pre-run and the final.
	if n := bytes.Count([]byte(a), []byte(`{"type":"run"`)); n != 2 {
		t.Errorf("trace contains %d run records, want 2 (profiling + final)", n)
	}
}

// TestScenarioRunCanceled checks ctx threading end to end: a canceled
// context aborts the pipeline with an error wrapping context.Canceled.
func TestScenarioRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := campusScenario(false).Run(ctx, mapping.Top); !errors.Is(err, context.Canceled) {
		t.Errorf("Run error = %v, want context.Canceled", err)
	}
	remapped := campusScenario(false)
	remapped.RemapEvery = 10
	if _, err := remapped.Run(ctx, mapping.Top); !errors.Is(err, context.Canceled) {
		t.Errorf("remapped Run error = %v, want context.Canceled", err)
	}
	if _, err := crashRun(ctx, midRunCrash(), false); !errors.Is(err, context.Canceled) {
		t.Errorf("crash Run error = %v, want context.Canceled", err)
	}
}

// TestResilientStatsMatchRecovery runs the full crash-recovery pipeline with
// stats collection and cross-checks the observability counters against the
// Recovery report.
func TestResilientStatsMatchRecovery(t *testing.T) {
	sc := faultScenario()
	sc.CollectStats, sc.Faults, sc.CheckpointEvery = true, midRunCrash(), 4
	out, err := sc.Run(context.Background(), mapping.Top)
	if err != nil {
		t.Fatal(err)
	}
	rec := out.Result.Recovery
	st := out.Result.Obs
	if rec == nil || st == nil {
		t.Fatalf("missing recovery (%v) or stats (%v)", rec, st)
	}
	if rec.Failures != 1 {
		t.Fatalf("expected 1 failure, got %d", rec.Failures)
	}
	if st.Checkpoints != int64(rec.Checkpoints) || st.Crashes != 1 || st.Rollbacks != 1 {
		t.Errorf("obs checkpoints/crashes/rollbacks = %d/%d/%d, recovery checkpoints = %d",
			st.Checkpoints, st.Crashes, st.Rollbacks, rec.Checkpoints)
	}
	var migrated int64
	for _, n := range st.MigratedNodes {
		migrated += n
	}
	if got := migrated; got != int64(rec.Migrations) {
		t.Errorf("obs migrations = %d, recovery says %d", got, rec.Migrations)
	}
	if st.ReplayedWindows <= 0 {
		t.Errorf("obs replayed windows = %d, want > 0 after a rollback", st.ReplayedWindows)
	}
}
