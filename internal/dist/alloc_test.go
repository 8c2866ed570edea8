package dist_test

import (
	"context"
	"testing"

	"repro/internal/dist"
)

// TestWireWindowSteadyStateAllocs gates the frame path's garbage: once the
// per-connection frame buffers, the coordinator's per-member reports and the
// worker's event scratch have reached their size, a sync window is carried —
// encoded, sent, received, decoded, on both sides — without allocating. The
// same Campus run over loopback pairs is cut at two virtual times; the mallocs
// the later cut adds, over the windows it adds, are the steady-state cost of
// one window, emulation included. A fresh payload per frame, a regrown encoder
// or a fresh report per window each cost at least one allocation per frame —
// four and more per window per worker — and fail the gate.
func TestWireWindowSteadyStateAllocs(t *testing.T) {
	const workers = 2
	spec := distSpec(t)
	run := func(end float64) (mallocs float64, windows int64) {
		spec.Cfg.EndTime = end
		mallocs = testing.AllocsPerRun(1, func() {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			conns, wait := startLoopbackWorkers(ctx, workers)
			res, err := dist.Run(ctx, spec, conns, dist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, werr := range wait() {
				if werr != nil {
					t.Fatal(werr)
				}
			}
			windows = res.Kernel.Windows
		})
		return mallocs, windows
	}
	m1, w1 := run(2)
	m2, w2 := run(4)
	if w2-w1 < 1000 {
		t.Fatalf("the later cut adds %d windows, want at least 1000", w2-w1)
	}
	perWindow := (m2 - m1) / float64(w2-w1) / workers
	t.Logf("%d windows: %.0f mallocs; %d windows: %.0f mallocs; %.3f per window per worker", w1, m1, w2, m2, perWindow)
	if perWindow > 2 {
		t.Fatalf("%.2f allocations per window per worker in steady state, want at most 2", perWindow)
	}
}
