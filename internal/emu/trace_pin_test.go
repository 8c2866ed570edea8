package emu_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/obs"
)

// TestTraceRenderingPins pins every byte the timeline renders for three
// in-process runs of the evaluation's scenarios (ScaLapack over the HTTP
// background, TOP mapping, seed 42). The SHA-256 values
// were recorded at commit bed0bbc, before the timeline's store was rewritten:
// a storage change that moves one rendered byte fails here.
func TestTraceRenderingPins(t *testing.T) {
	pins := []struct {
		topo             string
		duration         float64
		canonical, trace string
	}{
		{"Campus", 30,
			"d963826e5b934bbff1233e45058e222d10f22a92d63fb850f15b1cb2ba256e83",
			"3031820dd194223e5ca2693023020388f88cc3ddc4e809c8460dbf4893b123a4"},
		{"TeraGrid", 600,
			"6872022f663d1763be0f49a16fde5dbe38dcf0dc0f9e60e1b3c87ca0ebbc61ae",
			"0900c13504d12fba6ad83567613931a0791b3d929e1c41238ff45a51fc772d24"},
		{"Brite", 120,
			"935eb25d61e05d918ba162d45e2dec77c3fcbe1e5c903e8a64ad4559c2fc815f",
			"32de98b15dd41cdce2c01a32e3f6c9488f9b197bc68937143a92e93758aef90f"},
	}
	for _, p := range pins {
		p := p
		t.Run(p.topo, func(t *testing.T) {
			sc, err := experiments.ScenarioFor(experiments.Config{Duration: p.duration, Seed: 42}, p.topo, "ScaLapack")
			if err != nil {
				t.Fatal(err)
			}
			routes, err := sc.Routes()
			if err != nil {
				t.Fatal(err)
			}
			w, err := sc.Workload()
			if err != nil {
				t.Fatal(err)
			}
			in, err := sc.MappingInput()
			if err != nil {
				t.Fatal(err)
			}
			top, err := mapping.TopMap(in)
			if err != nil {
				t.Fatal(err)
			}
			tl := obs.NewTimeline()
			if _, err := emu.Run(emu.Config{
				Network: sc.Network, Routes: routes, Assignment: top,
				NumEngines: sc.Engines, Workload: w,
			}, emu.WithTrace(tl)); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			h.Write(tl.CanonicalJSON())
			if got := hex.EncodeToString(h.Sum(nil)); got != p.canonical {
				t.Errorf("CanonicalJSON sha256 = %s, want %s", got, p.canonical)
			}
			h.Reset()
			if err := tl.WriteTraceEvents(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != p.trace {
				t.Errorf("WriteTraceEvents sha256 = %s, want %s", got, p.trace)
			}
		})
	}
}
