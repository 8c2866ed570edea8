package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mapping"
)

func TestDynamicStudy(t *testing.T) {
	rows, err := DynamicStudy(Config{Duration: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 policies", len(rows))
	}
	byPolicy := map[core.RemapPolicy]DynamicRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
		if r.Imbalance <= 0 || r.AppTime <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Policy, r)
		}
	}
	game, ok := byPolicy[core.RemapGame]
	if !ok {
		t.Fatal("game policy missing from the study")
	}
	profile := byPolicy[core.RemapProfile]
	if !game.Converged {
		t.Error("game policy did not converge on the study workload")
	}
	if game.Rounds == 0 {
		t.Error("game policy recorded zero best-response rounds")
	}
	// The headline tradeoff (strict inequality is asserted by the core
	// acceptance test on the full workload; here we only require the study
	// not to contradict it).
	if game.Migrations > profile.Migrations {
		t.Errorf("game migrated %d nodes, PROFILE %d — game should not migrate more",
			game.Migrations, profile.Migrations)
	}

	out := RenderDynamicStudy(rows)
	for _, p := range []string{"profile", "game", "diffusion"} {
		if !strings.Contains(out, p) {
			t.Errorf("rendered study missing policy %q:\n%s", p, out)
		}
	}
}

// TestGameRemapConvergencePinned pins the game policy's convergence profile on
// Campus+GridNPB (60 s, seed 42) at two remap cadences: segments, best-response
// rounds, candidate moves evaluated, moves taken, node migrations, cross-engine
// bytes and whether every remap converged. Coarser intervals aggregate more
// traffic per decision, so the two profiles differ. Every field is exact under
// the fixed-order, seeded-tie-break contract, so any drift means the game
// dynamics changed; after an intentional policy change, take the new row from
// the failure message.
func TestGameRemapConvergencePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full dynamic emulations")
	}
	type profile struct {
		Segments, Rounds, MovesEvaluated, MovesTaken, Migrations int
		CrossEngineBytes                                         int64
		Converged                                                bool
	}
	for _, c := range []struct {
		interval float64
		want     profile
	}{
		{10, profile{6, 12, 1440, 24, 18, 1468932096, true}},
		{20, profile{3, 7, 840, 25, 15, 1518919680, true}},
	} {
		sc, err := ScenarioFor(Config{Duration: 60, Seed: 42}, "Campus", "GridNPB")
		if err != nil {
			t.Fatal(err)
		}
		sc.Remap, sc.RemapEvery = core.RemapGame, c.interval
		o, err := sc.Run(context.Background(), mapping.Top)
		if err != nil {
			t.Fatal(err)
		}
		got := profile{Segments: len(o.Segments), Migrations: o.Migrations,
			CrossEngineBytes: o.Result.Telemetry.CrossEngineBytes, Converged: true}
		for _, s := range o.Segments {
			if r := s.Remap; r != nil {
				got.Rounds += r.Rounds
				got.MovesEvaluated += r.MovesEvaluated
				got.MovesTaken += r.MovesTaken
				got.Converged = got.Converged && r.Converged
			}
		}
		if got != c.want {
			t.Errorf("interval %gs: convergence profile drifted\n got  %+v\n want %+v", c.interval, got, c.want)
		}
	}
}
