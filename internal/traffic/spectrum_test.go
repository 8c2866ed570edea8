package traffic_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// TestBackgroundPredictabilitySpectrum runs PLACE against backgrounds at the
// two ends of the predictability spectrum. For CBR — whose prediction is
// exact by construction — PLACE must track PROFILE closely; for bursty
// on/off traffic the average-rate prediction hides the variance and PLACE's
// edge over TOP shrinks. This is the paper's §3.2/§4.2.1 causal story
// (prediction accuracy drives PLACE quality) made executable.
func TestBackgroundPredictabilitySpectrum(t *testing.T) {
	run := func(bg traffic.Background) (top, place, profile float64) {
		sc := &core.Scenario{
			Name:       "spectrum",
			Network:    topogen.TeraGrid(),
			Engines:    5,
			Background: bg,
			PartSeed:   3,
		}
		outs, err := sc.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return outs[0].Result.Imbalance, outs[1].Result.Imbalance, outs[2].Result.Imbalance
	}

	cbrSpec := traffic.DefaultCBR(40, 6)
	cbrTop, cbrPlace, cbrProfile := run(cbrSpec)
	if cbrPlace > cbrProfile*2+0.05 {
		t.Errorf("CBR: PLACE %.3f far from PROFILE %.3f despite exact prediction",
			cbrPlace, cbrProfile)
	}
	if cbrPlace >= cbrTop*1.1 {
		t.Errorf("CBR: PLACE %.3f not better than TOP %.3f", cbrPlace, cbrTop)
	}

	onoffTop, onoffPlace, onoffProfile := run(traffic.DefaultOnOff(40, 6))
	_ = onoffTop
	// PROFILE still wins on the bursty condition.
	if onoffProfile >= onoffPlace*1.2+0.02 {
		t.Errorf("on/off: PROFILE %.3f worse than PLACE %.3f", onoffProfile, onoffPlace)
	}
}
