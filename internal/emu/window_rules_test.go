package emu_test

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/emu"
)

// replayWindows counts the windows a window-pick rule needs for a logged run:
// perLP[e] is the times of the events engine e executed, in order; each
// window executes every logged event before the end the rule picks from the
// engines' next event times (+Inf: none left). The log stands in for the
// pending queues, so an event not yet scheduled at a barrier still bounds its
// engine's window — the estimate errs toward more windows, never fewer.
func replayWindows(perLP [][]float64, end func(next []float64) float64) (windows int64) {
	cur, next := make([]int, len(perLP)), make([]float64, len(perLP))
	for {
		pending := false
		for e, times := range perLP {
			next[e] = math.Inf(1)
			if cur[e] < len(times) {
				next[e], pending = times[cur[e]], true
			}
		}
		if !pending {
			return windows
		}
		until := end(next)
		for e, times := range perLP {
			for cur[e] < len(times) && times[cur[e]] < until {
				cur[e]++
			}
		}
		windows++
	}
}

// TestWindowRuleEstimates is the measure-first half of "fewer, fatter
// windows": from the (time, engine) log of a run under TOP it replays the
// kernel's own rule — which must reproduce Kernel.Windows exactly, or the
// replay is not measuring this kernel — and then two candidates: windows of
// the same scalar lookahead that start at the earliest pending event instead
// of on the grid, and windows that end at the earliest time any engine could
// make itself felt elsewhere (its next event plus its own smallest cut-link
// latency). EXPERIMENTS.md records the table; ROADMAP item 3 reads it.
func TestWindowRuleEstimates(t *testing.T) {
	if testing.Short() {
		t.Skip("replays full bench-length runs")
	}
	for _, c := range []struct {
		topology string
		duration float64 // the bench's length for that topology
	}{{"TeraGrid", 600}, {"Campus", 30}, {"Brite", 120}} {
		cfg := topConfig(t, c.topology, c.duration)
		perLP := make([][]float64, cfg.NumEngines)
		res, err := emu.RunLogged(cfg, func(at float64, lp int) { perLP[lp] = append(perLP[lp], at) })
		if err != nil {
			t.Fatal(err)
		}
		L := res.Lookahead

		grid := des.Grid{Lookahead: L}
		aligned := replayWindows(perLP, func(next []float64) float64 {
			_, end, _, _ := grid.Next(minOf(next), true)
			return end
		})
		if aligned != res.Kernel.Windows {
			t.Fatalf("%s: the replayed grid rule needs %d windows, the kernel ran %d", c.topology, aligned, res.Kernel.Windows)
		}

		unaligned := replayWindows(perLP, func(next []float64) float64 { return minOf(next) + L })

		// out[e]: the smallest latency of a link engine e cuts, +Inf if none.
		out := make([]float64, cfg.NumEngines)
		for e := range out {
			out[e] = math.Inf(1)
		}
		for _, l := range cfg.Network.Links {
			if a, b := cfg.Assignment[l.A], cfg.Assignment[l.B]; a != b {
				out[a], out[b] = math.Min(out[a], l.Latency), math.Min(out[b], l.Latency)
			}
		}
		perEngine := replayWindows(perLP, func(next []float64) float64 {
			end := math.Inf(1)
			for e, at := range next {
				end = math.Min(end, at+out[e])
			}
			return end
		})
		// Both candidates only ever end a window later than the grid does.
		if unaligned > aligned || perEngine > unaligned {
			t.Errorf("%s: %d aligned, %d unaligned, %d per-engine windows: a wider window needed more of them",
				c.topology, aligned, unaligned, perEngine)
		}
		t.Logf("%-8s L = %.3g ms, engine out-lookaheads %.3g ms: %d windows on the grid, %d unaligned (%+.1f %%), %d per-engine (%+.1f %%)",
			c.topology, L*1e3, scaled(out, 1e3), aligned,
			unaligned, 100*float64(unaligned-aligned)/float64(aligned),
			perEngine, 100*float64(perEngine-aligned)/float64(aligned))
	}
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func scaled(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}
