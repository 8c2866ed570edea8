package mapping

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/netflow"
	"repro/internal/partition"
	"repro/internal/topogen"
)

func TestSentinelErrBadInput(t *testing.T) {
	nw := topogen.Campus()
	cases := []struct {
		name string
		err  func() error
	}{
		{"no-network", func() error { _, err := TopMap(Input{K: 2}); return err }},
		{"bad-k", func() error { _, err := TopMap(Input{Network: nw}); return err }},
		{"unknown-approach", func() error { _, err := Map("NOPE", Input{Network: nw, K: 2}); return err }},
		{"profile-no-summary", func() error { _, err := ProfileMap(Input{Network: nw, K: 2}); return err }},
		{"profile-summary-short-of-links", func() error {
			sum := &netflow.Summary{NodePackets: make([]int64, nw.NumNodes()), LinkPackets: make([]int64, len(nw.Links)-1)}
			_, err := ProfileMap(Input{Network: nw, K: 2, Summary: sum})
			return err
		}},
		{"priority-nan", func() error { _, err := TopMap(Input{Network: nw, K: 2, LatencyPriority: math.NaN()}); return err }},
		{"priority-negative", func() error { _, err := PlaceMap(Input{Network: nw, K: 2, LatencyPriority: -0.1}); return err }},
		{"priority-above-one", func() error { _, err := TopMap(Input{Network: nw, K: 2, LatencyPriority: 1.5}); return err }},
		{"imbalance-nan", func() error {
			_, err := TopMap(Input{Network: nw, K: 2, PartOpts: partition.Options{Imbalance: math.NaN()}})
			return err
		}},
		{"imbalance-inf", func() error {
			_, err := PlaceMap(Input{Network: nw, K: 2, PartOpts: partition.Options{Imbalance: math.Inf(1)}})
			return err
		}},
		{"engine-fraction-nan", func() error {
			_, err := TopMap(Input{Network: nw, K: 2, EngineFractions: []float64{1, math.NaN()}})
			return err
		}},
		{"engine-fraction-inf", func() error {
			_, err := ProfileMap(Input{Network: nw, K: 2, EngineFractions: []float64{math.Inf(1), 1}})
			return err
		}},
		{"engine-fraction-nan-wrong-length", func() error {
			_, err := PlaceMap(Input{Network: nw, K: 2, EngineFractions: []float64{math.NaN()}})
			return err
		}},
		{"remap-bad-assignment", func() error {
			_, _, err := RemapOnto(Input{Network: nw, K: 2}, []int{0}, []int{0}, nil)
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.err()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: error %v does not wrap ErrBadInput", tc.name, err)
		}
	}
}

func TestSentinelErrInfeasible(t *testing.T) {
	nw := topogen.Campus()
	prev := make([]int, nw.NumNodes())
	opts := partition.Options{Seed: 1}
	cases := []struct {
		name string
		err  func() error
	}{
		{"top-too-many", func() error {
			_, err := TopMap(Input{Network: nw, K: nw.NumNodes() + 1, PartOpts: opts})
			return err
		}},
		{"place-too-many", func() error {
			_, err := PlaceMap(Input{Network: nw, K: nw.NumNodes() + 1, PartOpts: opts})
			return err
		}},
		{"profile-too-many", func() error {
			_, err := ProfileMap(Input{Network: nw, K: nw.NumNodes() + 1, PartOpts: opts})
			return err
		}},
		{"kcluster-too-many", func() error {
			_, err := KClusterMap(Input{Network: nw, K: nw.NumNodes() + 1, PartOpts: opts})
			return err
		}},
		{"hier-too-many", func() error {
			_, err := HierMap(Input{Network: nw, K: nw.NumNodes() + 1, PartOpts: opts})
			return err
		}},
		{"remap-no-survivors", func() error {
			_, _, err := RemapOnto(Input{Network: nw, K: 2}, prev, nil, nil)
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.err()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: error %v does not wrap ErrInfeasible", tc.name, err)
		}
		if errors.Is(err, ErrBadInput) {
			t.Errorf("%s: infeasible error must not also wrap ErrBadInput: %v", tc.name, err)
		}
	}
}

// TestNonPositiveEngineFractionCountsAsOne: a capacity <= 0 is read the way
// the emulator reads the engine speed it comes from, as speed 1, so the
// partition targets the engines the emulation will run on.
func TestNonPositiveEngineFractionCountsAsOne(t *testing.T) {
	tg := topogen.TeraGrid()
	top := func(frac ...float64) []int {
		t.Helper()
		part, err := TopMap(Input{Network: tg, K: 5, PartOpts: partition.Options{Seed: 42}, EngineFractions: frac})
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	want := top(4, 2, 1, 1, 1)
	if slices.Equal(want, top()) {
		t.Fatal("the instance no longer tells unequal engines from equal ones")
	}
	for _, frac := range [][]float64{{4, 2, 0, 1, 1}, {4, 2, -3, 1, 1}, {4, 2, math.Inf(-1), 1, 1}} {
		if !slices.Equal(top(frac...), want) {
			t.Errorf("EngineFractions %v maps unlike {4 2 1 1 1}", frac)
		}
	}
}
