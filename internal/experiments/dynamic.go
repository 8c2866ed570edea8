package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mapping"
)

// DynamicRow is one remap policy's outcome on the bursty dynamic-remapping
// comparison.
type DynamicRow struct {
	Policy               core.RemapPolicy
	Imbalance            float64
	MeanSegmentImbalance float64
	CrossEngineBytes     int64
	Migrations           int
	AppTime              float64
	// Rounds, MovesTaken and Converged aggregate the per-segment game
	// convergence stats; zero/false for the non-game policies.
	Rounds     int
	MovesTaken int
	Converged  bool
}

// DynamicStudy compares the dynamic remap policies — from-scratch PROFILE,
// the game-theoretic best-response policy, and the traffic-blind diffusion
// baseline — on the bursty GridNPB workload the
// paper's Table-1 Campus configuration runs. Every policy sees the same
// scenario, interval grid and seeds; the rows differ only in how each
// interval's telemetry is turned into the next assignment.
func DynamicStudy(cfg Config) ([]DynamicRow, error) {
	cfg = cfg.withDefaults()
	// Five remap opportunities over the run: enough bursts of GridNPB's
	// irregular traffic for the policies to diverge, short enough to keep
	// the study inside the quick-mode budget.
	interval := cfg.Duration / 5

	policies := []core.RemapPolicy{
		core.RemapProfile,
		core.RemapGame,
		core.RemapDiffusion,
	}
	rows := make([]DynamicRow, 0, len(policies))
	for _, p := range policies {
		sc, err := cfg.scenario("Campus", "GridNPB")
		if err != nil {
			return nil, err
		}
		sc.Remap, sc.RemapEvery = p, interval
		o, err := sc.Run(context.Background(), mapping.Top)
		if err != nil {
			return nil, fmt.Errorf("dynamic study %s: %w", p, err)
		}
		res := o.Result
		row := DynamicRow{
			Policy:               p,
			Imbalance:            res.Imbalance,
			MeanSegmentImbalance: o.MeanSegmentImbalance,
			CrossEngineBytes:     res.Telemetry.CrossEngineBytes,
			Migrations:           o.Migrations,
			AppTime:              res.AppTime,
			Converged:            true,
		}
		for _, s := range o.Segments {
			if s.Remap == nil {
				continue
			}
			row.Rounds += s.Remap.Rounds
			row.MovesTaken += s.Remap.MovesTaken
			if p == core.RemapGame && !s.Remap.Converged {
				row.Converged = false
			}
		}
		if p != core.RemapGame {
			row.Converged = false
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderDynamicStudy formats the policy comparison as a fixed-width table.
func RenderDynamicStudy(rows []DynamicRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %9s %10s %10s %9s %7s %6s %9s\n",
		"policy", "imbalance", "mean-imb", "cross-MB", "migrations", "app(s)", "rounds", "moves", "converged")
	for _, r := range rows {
		conv := "-"
		if r.Policy == core.RemapGame {
			conv = fmt.Sprintf("%v", r.Converged)
		}
		fmt.Fprintf(&b, "%-12s %9.3f %9.3f %10.1f %10d %9.1f %7d %6d %9s\n",
			r.Policy, r.Imbalance, r.MeanSegmentImbalance,
			float64(r.CrossEngineBytes)/1e6, r.Migrations, r.AppTime,
			r.Rounds, r.MovesTaken, conv)
	}
	return b.String()
}
