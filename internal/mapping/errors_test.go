package mapping

import (
	"errors"
	"math"
	"testing"

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
		{"guard-bad-capacity", func() error {
			_, err := MapWithMemoryGuard(Top, Input{Network: nw, K: 2}, 0, 1)
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
