package emu_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/netflow"
	"repro/internal/traffic"
)

// summaryDigest hashes what PROFILE reads of a profiling run: the summary's
// per-link and per-node packet totals and its load series. Floats print with
// %v, so equal digests mean bit-equal values.
func summaryDigest(s *netflow.Summary) string {
	links := make([]int, 0, len(s.LinkPackets))
	for l := range s.LinkPackets {
		links = append(links, l)
	}
	sort.Ints(links)
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes %v\nlinks", s.NodePackets)
	for _, l := range links {
		fmt.Fprintf(&sb, " %d:%d", l, s.LinkPackets[l])
	}
	fmt.Fprintf(&sb, "\nseries %v %v\n", s.NodeSeries.BucketWidth, s.NodeSeries.Loads)
	h := sha256.Sum256([]byte(sb.String()))
	return fmt.Sprintf("%d links %x", len(links), h[:8])
}

// dumpOnZero is an OnMembership that moves the dead engine's nodes to engine 0.
func dumpOnZero(c emu.MembershipChange) ([]int, error) {
	next := append([]int(nil), c.Previous...)
	for v, e := range next {
		if e == c.Dead {
			next[v] = 0
		}
	}
	return next, nil
}

// TestProfileMatchesKeyedCollector is the emulator half of the differential
// test against the map-keyed per-flow record collector (the collector half,
// driven by synthetic streams against that collector kept verbatim, is
// netflow.TestCollectorMatchesReference). The runs cover every release
// discipline, finite buffers with drops, a truncated run, both dispatches, one
// crash, two crashes charged from the same cadence barrier, and a paper
// topology. Each row pins the summary PROFILE reads. The digests were recorded
// at 87dbae0 from the per-(flow, hop) record store, whose records these same
// runs held equal to the keyed collector's (recorded at f900919, the crash rows
// when a crash still rolled back and re-ran). The keyed collector could only be
// reached through emu.Run, whose hop stream no exported hook exposes, so it is
// pinned here rather than run side by side.
func TestProfileMatchesKeyedCollector(t *testing.T) {
	dense := func(mod func(*emu.Config)) emu.Config {
		cfg := denseConfig()
		cfg.Profile = true
		if mod != nil {
			mod(&cfg)
		}
		return cfg
	}
	// A flow that starts with flow 0 at the same source finds the transmitter
	// backlogged and loses every chunk at its first link.
	shadowed := traffic.Flow{ID: 64, Src: 0, Dst: 9, Start: 0, Bytes: 96 << 10, Tag: "dense"}
	threeEngines := []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}
	// Neither the dispatch nor a crash recovery leaves a trace in the
	// accounting: five of the runs emulate the same network and must report
	// the same thing, and slow start only moves packets within 2 s buckets.
	const unfaulted = "9 links c996a3833a698d47"
	cases := []struct {
		name string
		cfg  emu.Config
		want string
	}{
		{"blast", dense(nil), unfaulted},
		{"tcp", dense(func(c *emu.Config) { c.Transport = emu.TCPSlowStart }), unfaulted},
		{"buffered-drops", dense(func(c *emu.Config) {
			c.BufferBytes = 8 << 10
			c.Workload.Flows = append(c.Workload.Flows[:len(c.Workload.Flows):len(c.Workload.Flows)], shadowed)
		}), "9 links 47847b7ed8f4f54b"},
		{"truncated", dense(func(c *emu.Config) { c.EndTime = 1.5 }), "9 links c99a67dc2373c3b0"},
		{"crash-rollback", dense(func(c *emu.Config) {
			c.Faults = &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 2}}}
			c.CheckpointEvery = 1
			c.OnMembership = dumpOnZero
		}), unfaulted},
		{"two-rollbacks-one-checkpoint", dense(func(c *emu.Config) {
			c.Assignment, c.NumEngines = threeEngines, 3
			c.Faults = &faults.Schedule{Crashes: []faults.Crash{{Engine: 2, At: 2.2}, {Engine: 1, At: 2.6}}}
			c.CheckpointEvery = 2
			c.OnMembership = dumpOnZero
		}), unfaulted},
		{"campus-top", func() emu.Config {
			cfg := topConfig(t, "Campus", 30)
			cfg.Profile = true
			return cfg
		}(), "56 links 452febe311cf46db"},
	}
	for _, c := range cases {
		res, err := emu.Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := summaryDigest(res.NetFlow.Summarize()); got != c.want {
			t.Errorf("%s: summary digest %s, want %s", c.name, got, c.want)
		}
		switch c.name {
		case "buffered-drops":
			if res.DroppedPackets == 0 {
				t.Error("buffered-drops dropped nothing")
			}
			if fct := res.FlowFCTs[len(res.FlowFCTs)-1]; fct >= 0 {
				t.Errorf("flow %d lost every chunk at its source yet completed in %v s", shadowed.ID, fct)
			}
		case "crash-rollback", "two-rollbacks-one-checkpoint":
			if res.Recovery == nil || res.Recovery.Failures != len(c.cfg.Faults.Crashes) {
				t.Errorf("%s: recovery %+v, want %d failures", c.name, res.Recovery, len(c.cfg.Faults.Crashes))
			}
		}
	}
}

// TestProfilePaperTopologies pins the summary on the two paper topologies the
// benchmark profiles, 30 s under TOP. The digests were recorded at 87dbae0
// from the per-(flow, hop) record store.
func TestProfilePaperTopologies(t *testing.T) {
	for _, c := range []struct{ topology, want string }{
		{"Brite", "322 links b4106320b209b603"},
		{"TeraGrid", "179 links d24e2a221f663368"},
	} {
		cfg := topConfig(t, c.topology, 30)
		cfg.Profile = true
		res, err := emu.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.topology, err)
		}
		if got := summaryDigest(res.NetFlow.Summarize()); got != c.want {
			t.Errorf("%s: summary digest %s, want %s", c.topology, got, c.want)
		}
	}
}

// TestProfileIndependentOfMapping is the paper's premise — the mapping changes
// how fast the emulation runs, never what the emulated network does — stated
// on what PROFILE reads: with unbounded buffers, the summary of a run under
// TOP, under a seeded random assignment, on a single engine and under TOP
// remapped at random every second is the same, its per-link and per-node
// packet totals and its load series bit for bit.
func TestProfileIndependentOfMapping(t *testing.T) {
	for _, topology := range []string{"Campus", "TeraGrid"} {
		cfg := topConfig(t, topology, 30)
		cfg.Profile = true
		var want *netflow.Summary
		for _, m := range mappingsOf(cfg, 7) {
			cfg := cfg
			cfg.Assignment, cfg.NumEngines = m.assignment, m.engines
			if m.remapped {
				remapEverySecond(&cfg, 7)
			}
			res, err := emu.Run(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", topology, m.name, err)
			}
			got := res.NetFlow.Summarize()
			if want == nil {
				want = got
				if len(want.LinkPackets) == 0 {
					t.Fatalf("%s: no link carried traffic", topology)
				}
				continue
			}
			if !reflect.DeepEqual(got.LinkPackets, want.LinkPackets) {
				t.Errorf("%s %s: link packets differ from TOP's", topology, m.name)
			}
			if !slices.Equal(got.NodePackets, want.NodePackets) {
				t.Errorf("%s %s: node packets differ from TOP's", topology, m.name)
			}
			if !reflect.DeepEqual(got.NodeSeries, want.NodeSeries) {
				t.Errorf("%s %s: load series differs from TOP's", topology, m.name)
			}
		}
	}
}

// TestProfileCutLinkBothWays pins the per-direction ingress counters. The
// two directions of a cut link arrive on different engines in the same
// window; each direction has its own slot, written by its receiver's engine,
// and the link's total is both directions' packets: every flow's, since every
// flow crosses the cut.
func TestProfileCutLinkBothWays(t *testing.T) {
	cfg := denseConfig()
	cfg.Profile, cfg.MTU = true, 1500
	// Each flow starts with its reverse, so the two cross the cut at once.
	flows := append([]traffic.Flow(nil), cfg.Workload.Flows...)
	for i := range flows {
		flows[i].Start = 0.05 * float64(i/2)
	}
	cfg.Workload.Flows = flows
	var cut []int
	for l, link := range cfg.Network.Links {
		if cfg.Assignment[link.A] != cfg.Assignment[link.B] {
			cut = append(cut, l)
		}
	}
	var want int64
	dirs := map[[2]int]bool{}
	for _, f := range cfg.Workload.Flows {
		dirs[[2]int{f.Src, f.Dst}] = true
		full, rem := f.Bytes/cfg.ChunkBytes, f.Bytes%cfg.ChunkBytes
		want += full*((cfg.ChunkBytes+cfg.MTU-1)/cfg.MTU) + (rem+cfg.MTU-1)/cfg.MTU
	}
	if len(cut) != 1 || len(dirs) != 2 {
		t.Fatalf("want one cut link carrying traffic both ways: %d cut, %d directions", len(cut), len(dirs))
	}
	res, err := emu.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, fct := range res.FlowFCTs {
		if fct < 0 {
			t.Fatalf("flow %d never completed", i)
		}
	}
	if got := res.NetFlow.Summarize().LinkPackets[cut[0]]; got != want {
		t.Errorf("the cut link carried %d packets, its flows sent %d", got, want)
	}
}
