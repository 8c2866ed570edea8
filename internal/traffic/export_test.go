package traffic

// The CBR and on/off generators are test fixtures: no production scenario
// builds them. They sit at the two ends of the predictability spectrum
// (exact and average-rate prediction), and the external test package's
// TestBackgroundPredictabilitySpectrum runs PLACE against both.

import (
	"math/rand"

	"repro/internal/netgraph"
)

// CBRSpec describes constant-bit-rate background flows — the second kind of
// background generator BRITE-style tooling provides (§4.1.3 adapts BRITE's
// background traffic support). A fixed set of endpoint pairs each sustains
// Rate bytes/s, shipped as one flow per Period.
//
// CBR traffic is the easiest case for the PLACE approach: its prediction is
// exact by construction.
type CBRSpec struct {
	Name string
	// Pairs is the number of endpoint pairs (chosen randomly from hosts).
	Pairs int
	// RateBytesPerSecond is each pair's sustained rate.
	RateBytesPerSecond float64
	// Period is the spacing between a pair's consecutive flows (seconds).
	Period float64
	// Duration of generation in virtual seconds.
	Duration float64
	// Seed fixes the endpoint choice and phase jitter.
	Seed int64
}

// DefaultCBR returns a moderate CBR condition: 50 pairs at 250 KB/s.
func DefaultCBR(duration float64, seed int64) CBRSpec {
	return CBRSpec{
		Name:               "CBR",
		Pairs:              50,
		RateBytesPerSecond: 250 << 10,
		Period:             1,
		Duration:           duration,
		Seed:               seed,
	}
}

// pairsOf fixes the endpoint pairs deterministically (shared by Generate and
// Predict, like HTTPSpec).
func (s CBRSpec) pairsOf(nw *netgraph.Network) [][2]int {
	rng := rand.New(rand.NewSource(s.Seed))
	hosts := nw.Hosts()
	if len(hosts) < 2 {
		return nil
	}
	out := make([][2]int, 0, s.Pairs)
	for i := 0; i < s.Pairs; i++ {
		a := hosts[rng.Intn(len(hosts))]
		b := hosts[rng.Intn(len(hosts))]
		for b == a {
			b = hosts[rng.Intn(len(hosts))]
		}
		out = append(out, [2]int{a, b})
	}
	return out
}

// Generate materializes the CBR workload: each pair sends
// Rate·Period bytes every Period, with a random phase per pair.
func (s CBRSpec) Generate(nw *netgraph.Network, after ...Workload) Workload {
	period := s.Period
	if period <= 0 {
		period = 1
	}
	bytes := int64(s.RateBytesPerSecond * period)
	if bytes <= 0 {
		return Workload{Duration: s.Duration, Flows: Collect(func(func(Flow)) {}, after...)}
	}
	pairs := s.pairsOf(nw)
	return Workload{Duration: s.Duration, Flows: Collect(func(emit func(Flow)) {
		rng := rand.New(rand.NewSource(s.Seed + 1))
		for _, p := range pairs {
			t := rng.Float64() * period
			for t < s.Duration {
				emit(Flow{Src: p[0], Dst: p[1], Start: t, Bytes: bytes, Tag: "cbr"})
				t += period
			}
		}
	}, after...)}
}

// Predict returns the exact average rates (CBR prediction is trivially
// perfect — the property that makes it a useful PLACE calibration case).
func (s CBRSpec) Predict(nw *netgraph.Network) []PairRate {
	var out []PairRate
	for _, p := range s.pairsOf(nw) {
		out = append(out, PairRate{Src: p[0], Dst: p[1], BytesPerSecond: s.RateBytesPerSecond})
	}
	return out
}

// OnOffSpec describes exponential on/off burst sources: each pair
// alternates between an active burst (mean BurstBytes shipped at once) and
// an idle gap with mean GapSeconds — bursty, hard-to-predict background, at
// the opposite end of the predictability spectrum from CBR.
type OnOffSpec struct {
	Name string
	// Pairs of endpoints.
	Pairs int
	// BurstBytes is the mean burst size.
	BurstBytes float64
	// GapSeconds is the mean idle gap between bursts.
	GapSeconds float64
	// Duration in virtual seconds.
	Duration float64
	// Seed fixes endpoints and the burst process.
	Seed int64
}

// DefaultOnOff returns a bursty condition: 30 pairs, 2 MB mean bursts, 8 s
// mean gaps.
func DefaultOnOff(duration float64, seed int64) OnOffSpec {
	return OnOffSpec{
		Name:       "OnOff",
		Pairs:      30,
		BurstBytes: 2 << 20,
		GapSeconds: 8,
		Duration:   duration,
		Seed:       seed,
	}
}

func (s OnOffSpec) pairsOf(nw *netgraph.Network) [][2]int {
	return CBRSpec{Pairs: s.Pairs, Seed: s.Seed}.pairsOf(nw)
}

// Generate materializes the on/off workload.
func (s OnOffSpec) Generate(nw *netgraph.Network, after ...Workload) Workload {
	pairs := s.pairsOf(nw)
	return Workload{Duration: s.Duration, Flows: Collect(func(emit func(Flow)) {
		rng := rand.New(rand.NewSource(s.Seed + 1))
		for _, p := range pairs {
			t := rng.ExpFloat64() * s.GapSeconds
			for t < s.Duration {
				bytes := int64(rng.ExpFloat64() * s.BurstBytes)
				if bytes > 0 {
					emit(Flow{Src: p[0], Dst: p[1], Start: t, Bytes: bytes, Tag: "onoff"})
				}
				t += rng.ExpFloat64() * s.GapSeconds
			}
		}
	}, after...)}
}

// Predict returns the average-rate model: BurstBytes every GapSeconds per
// pair. For genuinely bursty traffic the average hides the variance — the
// same limitation PLACE has with irregular applications.
func (s OnOffSpec) Predict(nw *netgraph.Network) []PairRate {
	rate := s.BurstBytes / s.GapSeconds
	var out []PairRate
	for _, p := range s.pairsOf(nw) {
		out = append(out, PairRate{Src: p[0], Dst: p[1], BytesPerSecond: rate})
	}
	return out
}
