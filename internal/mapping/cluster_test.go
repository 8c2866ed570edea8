package mapping

import (
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// seriesWith builds a series where node dominance follows the given plan:
// plan[b] = dominating node for bucket b (-1 = idle bucket).
func seriesWith(plan []int, nodes int) *metrics.Series {
	s := metrics.NewSeries(2, nodes, len(plan))
	for b, d := range plan {
		if d < 0 {
			continue
		}
		for n := 0; n < nodes; n++ {
			s.Loads[b][n] = 10
		}
		s.Loads[b][d] = 100
	}
	return s
}

func TestSegmentTimelineEmpty(t *testing.T) {
	if got := SegmentTimeline(metrics.NewSeries(2, 3, 0), 4); got != nil {
		t.Errorf("empty series -> %v, want nil", got)
	}
	// All-idle series: one covering segment.
	got := SegmentTimeline(metrics.NewSeries(2, 3, 5), 4)
	if len(got) != 1 || got[0] != [2]int{0, 4} {
		t.Errorf("idle series -> %v, want one covering segment", got)
	}
}

func TestSegmentTimelineSingleDominator(t *testing.T) {
	plan := make([]int, 20)
	for b := range plan {
		plan[b] = 1
	}
	got := SegmentTimeline(seriesWith(plan, 3), 4)
	if len(got) != 1 {
		t.Errorf("constant dominator -> %d segments, want 1: %v", len(got), got)
	}
}

func TestSegmentTimelineSplitsOnDominatorChange(t *testing.T) {
	// Node 0 dominates buckets 0-9, node 2 dominates 10-19.
	plan := make([]int, 20)
	for b := 10; b < 20; b++ {
		plan[b] = 2
	}
	got := SegmentTimeline(seriesWith(plan, 3), 4)
	if len(got) != 2 {
		t.Fatalf("got %d segments (%v), want 2", len(got), got)
	}
	// The split point should be near bucket 10 (smoothing may shift it
	// slightly).
	if got[0][1] < 7 || got[0][1] > 12 {
		t.Errorf("split at %d, want near 10", got[0][1])
	}
}

func TestSegmentTimelineDropsLowTraffic(t *testing.T) {
	// Busy start, long idle middle, busy end with a different dominator.
	plan := make([]int, 30)
	for b := 0; b < 10; b++ {
		plan[b] = 0
	}
	for b := 10; b < 20; b++ {
		plan[b] = -1 // idle
	}
	for b := 20; b < 30; b++ {
		plan[b] = 1
	}
	got := SegmentTimeline(seriesWith(plan, 2), 4)
	if len(got) != 2 {
		t.Fatalf("got %v, want 2 segments around the idle gap", got)
	}
}

func TestSegmentTimelineMergesSlivers(t *testing.T) {
	// A 1-bucket blip of node 1 inside node 0's reign must not survive as
	// its own segment.
	plan := make([]int, 20)
	plan[10] = 1
	got := SegmentTimeline(seriesWith(plan, 2), 4)
	for _, seg := range got {
		if seg[1]-seg[0]+1 < 3 && len(got) > 1 {
			t.Errorf("sliver segment survived: %v", got)
		}
	}
}

func TestSegmentTimelineCap(t *testing.T) {
	// Dominator alternates every 4 buckets among 6 nodes -> many segments;
	// cap at 3.
	plan := make([]int, 48)
	for b := range plan {
		plan[b] = (b / 4) % 6
	}
	got := SegmentTimeline(seriesWith(plan, 6), 3)
	if len(got) > 3 {
		t.Errorf("cap violated: %d segments", len(got))
	}
	// Segments must be ordered and non-overlapping.
	for i := 1; i < len(got); i++ {
		if got[i][0] <= got[i-1][1] {
			t.Errorf("segments overlap or disordered: %v", got)
		}
	}
}

func TestSegmentTimelineDefaultCap(t *testing.T) {
	plan := make([]int, 40)
	for b := range plan {
		plan[b] = (b / 5) % 4
	}
	got := SegmentTimeline(seriesWith(plan, 4), 0) // 0 -> default 4
	if len(got) > 4 {
		t.Errorf("default cap violated: %d segments", len(got))
	}
}

// smoothReference is the smoothed copy the clustering read its dominators
// from before it scanned one bucket at a time: every node's centered moving
// average over window buckets (an even window rounded up to odd), truncated
// at the ends.
func smoothReference(s *metrics.Series, window int) *metrics.Series {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	out := metrics.NewSeries(s.BucketWidth, s.Nodes(), s.Buckets())
	for b := range s.Loads {
		lo := b - half
		if lo < 0 {
			lo = 0
		}
		hi := b + half
		if hi > len(s.Loads)-1 {
			hi = len(s.Loads) - 1
		}
		span := float64(hi - lo + 1)
		for n := 0; n < s.Nodes(); n++ {
			var sum float64
			for i := lo; i <= hi; i++ {
				sum += s.Loads[i][n]
			}
			out.Loads[b][n] = sum / span
		}
	}
	return out
}

// TestSmoothedDominatorMatchesSmoothedSeries: the one-row scan names, for
// every bucket, the node DominatingNode names on the whole smoothed copy —
// on series whose loads are few distinct tenths, so windows tie exactly or
// differ only in how their sums round, and on continuous ones.
func TestSmoothedDominatorMatchesSmoothedSeries(t *testing.T) {
	// The reference itself: centered means inside, truncated ones at the
	// ends, and a window below 1 is the identity.
	ramp := metrics.NewSeries(1, 1, 5)
	for b := range ramp.Loads {
		ramp.Loads[b][0] = float64(b)
	}
	if sm := smoothReference(ramp, 3); sm.Loads[2][0] != 2 || sm.Loads[0][0] != 0.5 {
		t.Fatalf("reference smooths 0..4 to %v, want 2 inside and 0.5 at the start", sm.Loads)
	}
	for b, row := range smoothReference(ramp, 0).Loads {
		if row[0] != ramp.Loads[b][0] {
			t.Fatalf("reference with window 0 changed bucket %d", b)
		}
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		nodes, buckets := 1+rng.Intn(6), 1+rng.Intn(40)
		s := metrics.NewSeries(2, nodes, buckets)
		for _, row := range s.Loads {
			for n := range row {
				if trial%2 == 0 {
					row[n] = 0.1 * float64(rng.Intn(4))
				} else {
					row[n] = rng.ExpFloat64()
				}
			}
		}
		want := smoothReference(s, smoothWindow).DominatingNode()
		row := make([]float64, nodes)
		for b := range want {
			if got := smoothedDominator(s, b, row); got != want[b] {
				t.Fatalf("trial %d (%d nodes, %d buckets), bucket %d: dominator %d, the smoothed copy's %d", trial, nodes, buckets, b, got, want[b])
			}
		}
	}
}
