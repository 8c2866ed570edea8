package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestScenarioWorkloadPinned pins each paper scenario's workload (HTTP
// background then the foreground application, gathered and numbered by one
// traffic.Collect) at the harness defaults: every flow of every evaluation
// cell stays bit-identical.
func TestScenarioWorkloadPinned(t *testing.T) {
	pins := map[string]string{
		"Campus/ScaLapack":      "bad5e1fdc8fb1b6f97ec406f33c10a06abb7f0ac1469bc7a68e01fa3c8bd3731",
		"Campus/GridNPB":        "985cb33552c794622659960092e8131dd37da90d7f85c4d2194592686a93e3bb",
		"TeraGrid/ScaLapack":    "8398da5fdae6ae4cff813d6dfb1ee32090d20afc94782e8a5d85d55aeedf2cca",
		"TeraGrid/GridNPB":      "56ecbe10185f84a3b511432f0449f9b19819725698b46153cb703e17c855c392",
		"Brite/ScaLapack":       "4b070507c085b379e4a000fe56ee4a5f333762e695960bc93d651b0b82e4b59e",
		"Brite/GridNPB":         "34bfac7a8e53915be8c88d4f7e9ec94b8a5c05e6631c623cbdf8f6f40aa4e0b0",
		"Brite-large/ScaLapack": "4e5f852d7e891b11fd9c6007b989f8f121d1e2c036267330f87587857dd76f28",
		"Brite-large/GridNPB":   "157a59b3f90bcc0acd4ca119fbafae61a8c03629b4f8d7abfc955f550b34f5a2",
	}
	for _, topo := range []string{"Campus", "TeraGrid", "Brite", "Brite-large"} {
		for _, app := range []string{"ScaLapack", "GridNPB"} {
			sc, err := ScenarioFor(Config{}, topo, app)
			if err != nil {
				t.Fatal(err)
			}
			w, err := sc.Workload()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			fmt.Fprintf(h, "%v", w)
			key := topo + "/" + app
			if got := hex.EncodeToString(h.Sum(nil)); got != pins[key] {
				t.Errorf("%s: workload SHA-256 %s, pinned %s", key, got, pins[key])
			}
		}
	}
}
