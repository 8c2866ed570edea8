package mapping_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/topogen"
)

// tiedSeries is 60 buckets of 4 nodes, every load 0.1, 0.2 or 0.3: smoothed
// windows tie exactly or differ only in how their float sums round, so the
// segments depend on the summation order and on the first maximum winning.
func tiedSeries() *metrics.Series {
	rng := rand.New(rand.NewSource(7))
	s := metrics.NewSeries(2, 4, 60)
	for b := range s.Loads {
		for n := range s.Loads[b] {
			s.Loads[b][n] = 0.1 * float64(1+rng.Intn(3))
		}
	}
	return s
}

// britePreRun is the load series of the bench's PROFILE pre-run: Brite at
// seed 42, ScaLapack for 120 s, partition seed 45, mapped with TOP.
func britePreRun(t *testing.T) *metrics.Series {
	t.Helper()
	sc, err := experiments.ScenarioFor(experiments.Config{Duration: 120, Seed: 42}, "Brite", "ScaLapack")
	if err != nil {
		t.Fatal(err)
	}
	sc.CollectStats, sc.CollectTelemetry, sc.PartSeed = false, false, 45
	if sc.Network, err = topogen.ByName("Brite", 42); err != nil {
		t.Fatal(err)
	}
	_, prof, err := sc.Partition(context.Background(), mapping.Profile)
	if err != nil {
		t.Fatal(err)
	}
	return prof.NetFlow.Summarize().NodeSeries
}

// TestSegmentTimelinePinned pins the §3.3 segments of a measured and a tied
// series as the smoothed-copy clustering computed them, under the default cap
// and one that keeps every split.
func TestSegmentTimelinePinned(t *testing.T) {
	brite := britePreRun(t)
	for _, c := range []struct {
		name   string
		series *metrics.Series
		max    int
		want   [][2]int
	}{
		{"Brite", brite, 4, [][2]int{{0, 59}}},
		{"Brite", brite, 64, [][2]int{{0, 59}}},
		{"tied", tiedSeries(), 4, [][2]int{{0, 19}, {20, 34}, {35, 51}, {52, 59}}},
		{"tied", tiedSeries(), 64, [][2]int{{0, 2}, {3, 9}, {10, 14}, {15, 19}, {20, 25}, {26, 29}, {30, 34}, {35, 40}, {41, 45}, {46, 51}, {52, 59}}},
	} {
		if got := mapping.SegmentTimeline(c.series, c.max); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s, at most %d: segments %v, pinned %v", c.name, c.max, got, c.want)
		}
	}
}
