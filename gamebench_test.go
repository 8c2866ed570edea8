// Game-remap benchmark and its drift gate (BENCH_game.json).
//
// The benchmark times a complete dynamically remapped emulation — the bursty
// GridNPB workload on the Campus topology, re-partitioned every interval by
// the game-theoretic best-response policy — and the gate freezes the run's
// deterministic convergence profile: segment count, total best-response
// rounds, candidate moves evaluated, moves taken, node migrations, and the
// cross-engine byte total. Those are exact integers under the determinism
// contract (fixed vertex iteration order, seeded tie-breaks), so any drift
// means the game dynamics changed. Wall-clock numbers are informational.
//
// Regenerate after an intentional policy change with:
//
//	GAMEBENCH_WRITE=1 go test -run TestGameBaseline -timeout 10m
package repro

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mapping"
)

const gamebenchFile = "BENCH_game.json"

type gamebenchEntry struct {
	Name string `json:"name"`
	// Exact run invariants: the game's convergence profile.
	Segments         int   `json:"segments"`
	Rounds           int   `json:"rounds"`
	MovesEvaluated   int   `json:"moves_evaluated"`
	MovesTaken       int   `json:"moves_taken"`
	Migrations       int   `json:"migrations"`
	Converged        bool  `json:"converged"`
	CrossEngineBytes int64 `json:"cross_engine_bytes"`
	// NsPerOp is informational (machine-dependent), never gated.
	NsPerOp int64 `json:"ns_per_op"`
}

type gamebenchBaseline struct {
	Suite       string           `json:"suite"`
	Description string           `json:"description"`
	Date        string           `json:"date"`
	Entries     []gamebenchEntry `json:"entries"`
}

// gamebenchCases are the gated scenarios: the game policy at two remap
// cadences on the same bursty workload (coarser intervals aggregate more
// traffic per decision, so the convergence profiles differ).
func gamebenchCases() []struct {
	name     string
	interval float64
} {
	return []struct {
		name     string
		interval float64
	}{
		{"Campus-GridNPB-interval10", 10},
		{"Campus-GridNPB-interval20", 20},
	}
}

func gamebenchScenario(tb testing.TB, interval float64) *core.Scenario {
	tb.Helper()
	sc, err := experiments.ScenarioFor(experiments.Config{Duration: 60, Seed: 42}, "Campus", "GridNPB")
	if err != nil {
		tb.Fatal(err)
	}
	sc.Remap, sc.RemapEvery = core.RemapGame, interval
	return sc
}

func gamebenchMeasure(tb testing.TB, name string, interval float64) gamebenchEntry {
	tb.Helper()
	run := func() *core.Outcome {
		res, err := gamebenchScenario(tb, interval).Run(context.Background(), mapping.Top)
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
	res := run()
	entry := gamebenchEntry{
		Name:             name,
		Segments:         len(res.Segments),
		Migrations:       res.Migrations,
		Converged:        true,
		CrossEngineBytes: res.Result.Telemetry.CrossEngineBytes,
	}
	for _, s := range res.Segments {
		if s.Remap == nil {
			continue
		}
		entry.Rounds += s.Remap.Rounds
		entry.MovesEvaluated += s.Remap.MovesEvaluated
		entry.MovesTaken += s.Remap.MovesTaken
		if !s.Remap.Converged {
			entry.Converged = false
		}
	}
	br := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	entry.NsPerOp = br.NsPerOp()
	return entry
}

// BenchmarkGameRemap times the full dynamically remapped run per iteration.
func BenchmarkGameRemap(b *testing.B) {
	for _, c := range gamebenchCases() {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gamebenchScenario(b, c.interval).Run(context.Background(), mapping.Top); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGameBaseline is the game-remap drift gate: the convergence profile of
// the committed BENCH_game.json must match the current code exactly.
func TestGameBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full dynamic emulations")
	}
	write := os.Getenv("GAMEBENCH_WRITE") != ""
	var got []gamebenchEntry
	for _, c := range gamebenchCases() {
		got = append(got, gamebenchMeasure(t, c.name, c.interval))
	}

	if write {
		b := gamebenchBaseline{
			Suite:       "game-remap",
			Description: "Game-theoretic dynamic remapping on Campus+GridNPB (duration 60, seed 42): exact convergence profile per remap cadence — segments, best-response rounds, candidate moves evaluated, moves taken, node migrations, converged flag, cross-engine bytes. All integers are deterministic under the fixed-order/seeded-tie-break contract and gated exactly; ns/op is informational.",
			Date:        "2026-08-08",
			Entries:     got,
		}
		out, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gamebenchFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", gamebenchFile, len(got))
		return
	}

	data, err := os.ReadFile(gamebenchFile)
	if err != nil {
		t.Fatalf("missing committed baseline: %v (regenerate with GAMEBENCH_WRITE=1)", err)
	}
	var want gamebenchBaseline
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantBy := make(map[string]gamebenchEntry, len(want.Entries))
	for _, e := range want.Entries {
		wantBy[e.Name] = e
	}
	for _, g := range got {
		w, ok := wantBy[g.Name]
		if !ok {
			t.Errorf("%s: not in committed baseline (regenerate with GAMEBENCH_WRITE=1)", g.Name)
			continue
		}
		g.NsPerOp = w.NsPerOp // informational, never gated
		if g != w {
			t.Errorf("%s: convergence profile drift —\n  baseline %+v\n  current  %+v\n(regenerate with GAMEBENCH_WRITE=1 if intentional)", g.Name, w, g)
		}
	}
}
