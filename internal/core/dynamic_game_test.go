package core

import (
	"errors"
	"reflect"
	"testing"
)

func dynamicPolicyScenario(p RemapPolicy) *Scenario {
	sc := dynamicScenario()
	sc.Remap = p
	return sc
}

// The tentpole acceptance: on the bursty GridNPB workload the game policy
// converges (non-increasing payoff per round, fixed point or round cap) and
// lands cross-engine traffic no worse than from-scratch PROFILE remapping
// while migrating strictly fewer nodes.
func TestRunDynamicGameConvergesAndBeatsProfileOnMigrations(t *testing.T) {
	game, err := remapped(dynamicPolicyScenario(RemapGame), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := remapped(dynamicPolicyScenario(RemapProfile), 10, 0)
	if err != nil {
		t.Fatal(err)
	}

	sawRemap := false
	for i, s := range game.Segments {
		if s.Remap == nil {
			continue
		}
		sawRemap = true
		if s.Remap.Policy != RemapGame {
			t.Fatalf("segment %d ran policy %q", i, s.Remap.Policy)
		}
		if s.Remap.Rounds == 0 || len(s.Remap.Payoffs) != s.Remap.Rounds+1 {
			t.Fatalf("segment %d: rounds %d with %d payoff entries", i, s.Remap.Rounds, len(s.Remap.Payoffs))
		}
		if !s.Remap.Converged && s.Remap.Rounds < 64 {
			t.Fatalf("segment %d stopped at round %d without converging", i, s.Remap.Rounds)
		}
		for r := 1; r < len(s.Remap.Payoffs); r++ {
			if s.Remap.Payoffs[r] > s.Remap.Payoffs[r-1]+1e-9 {
				t.Fatalf("segment %d: payoff increased at round %d: %g -> %g",
					i, r, s.Remap.Payoffs[r-1], s.Remap.Payoffs[r])
			}
		}
	}
	if !sawRemap {
		t.Fatal("no segment recorded game remap stats")
	}

	if game.Migrations >= profile.Migrations {
		t.Fatalf("game migrated %d nodes, from-scratch PROFILE %d — want strictly fewer",
			game.Migrations, profile.Migrations)
	}
	if game.Result.Telemetry.CrossEngineBytes > profile.Result.Telemetry.CrossEngineBytes {
		t.Fatalf("game cross-engine bytes %d exceed PROFILE remap's %d",
			game.Result.Telemetry.CrossEngineBytes, profile.Result.Telemetry.CrossEngineBytes)
	}
}

// Determinism gate: the same scenario and seed must reproduce the assignment
// sequence exactly, segment by segment.
func TestRunDynamicGameDeterministic(t *testing.T) {
	a, err := remapped(dynamicPolicyScenario(RemapGame), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := remapped(dynamicPolicyScenario(RemapGame), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Segments) != len(b.Segments) {
		t.Fatalf("segment counts diverged: %d vs %d", len(a.Segments), len(b.Segments))
	}
	for i := range a.Segments {
		if !reflect.DeepEqual(segmentAssignment(a, i), segmentAssignment(b, i)) {
			t.Fatalf("segment %d assignments diverged across identical runs", i)
		}
		if !reflect.DeepEqual(a.Segments[i].Remap, b.Segments[i].Remap) {
			t.Fatalf("segment %d remap stats diverged across identical runs", i)
		}
	}
	if a.Migrations != b.Migrations || a.Result.Imbalance != b.Result.Imbalance {
		t.Fatal("totals diverged across identical runs")
	}
}

func TestRunDynamicDiffusionPolicyRuns(t *testing.T) {
	res, err := remapped(dynamicPolicyScenario(RemapDiffusion), 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Segments {
		if s.Remap != nil && s.Remap.Policy != RemapDiffusion {
			t.Fatalf("segment %d ran policy %q", i, s.Remap.Policy)
		}
	}
}

func TestRemapPolicyResolution(t *testing.T) {
	if _, err := ParseRemapPolicy("nope"); err == nil {
		t.Error("bad policy accepted")
	}
	for _, p := range []RemapPolicy{RemapProfile, RemapGame, RemapDiffusion} {
		got, err := ParseRemapPolicy(string(p))
		if err != nil || got != p {
			t.Errorf("ParseRemapPolicy(%q) = %q, %v", p, got, err)
		}
	}
	sc := &Scenario{}
	if p, _ := sc.remapPolicy(); p != RemapProfile {
		t.Errorf("default policy = %q", p)
	}
	sc.Remap = RemapGame
	if p, _ := sc.remapPolicy(); p != RemapGame {
		t.Errorf("explicit policy resolved to %q", p)
	}
	sc.Remap = "bogus"
	if _, err := sc.remapPolicy(); err == nil {
		t.Error("bogus scenario policy accepted")
	}
	for _, name := range []RemapPolicy{"bogus", "incremental"} {
		bad := dynamicScenario()
		bad.Remap = name
		if _, err := remapped(bad, 10, 0); !errors.Is(err, ErrRunConfig) {
			t.Errorf("a remapped Run with policy %q returned %v, want ErrRunConfig", name, err)
		}
	}
}
