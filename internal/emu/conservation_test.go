package emu_test

import (
	"testing"

	"repro/internal/emu"
)

// TestLinkBytesEqualRoutedVolume is byte conservation stated without knowing
// how the emulator stores routes: with unbounded buffers and no truncation,
// every flow completes, its destination observes exactly its bytes, and the
// links together carry each flow's bytes once per link of its route — the
// route read from an independent RouteLinks walk, not from the run.
func TestLinkBytesEqualRoutedVolume(t *testing.T) {
	for _, topology := range []string{"Campus", "TeraGrid"} {
		cfg := topConfig(t, topology, 30, true)
		cfg.Profile = true
		var offered, routed int64
		for _, f := range cfg.Workload.Flows {
			offered += f.Bytes
			routed += f.Bytes * int64(len(cfg.Network.RouteLinks(cfg.Routes, f.Src, f.Dst)))
		}
		for _, transport := range []emu.TransportMode{emu.Blast, emu.TCPSlowStart} {
			cfg.Transport = transport
			res, err := emu.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, fct := range res.FlowFCTs {
				if fct < 0 {
					t.Fatalf("%s transport %d: flow %d never completed", topology, transport, i)
				}
			}
			var carried, delivered int64
			for _, b := range res.LinkBytes {
				carried += b
			}
			for _, r := range res.NetFlow.Records() {
				if r.Node == r.Dst {
					delivered += r.Bytes
				}
			}
			if carried != routed || delivered != offered || res.DroppedPackets != 0 {
				t.Errorf("%s transport %d: links carried %d bytes, routes predict %d; destinations saw %d of %d offered; %d packets dropped",
					topology, transport, carried, routed, delivered, offered, res.DroppedPackets)
			}
		}
	}
}
