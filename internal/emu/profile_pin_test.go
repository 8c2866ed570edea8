package emu_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/netflow"
	"repro/internal/traffic"
)

// profileDigest hashes everything a profiling run's collector reports, in a
// form that does not depend on record order: the records sorted by (node,
// flow, in-link), the summary's per-node and per-link totals, and the load
// series. Floats print with %v, so equal digests mean bit-equal values.
func profileDigest(c *netflow.Collector) string {
	recs := c.Records()
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.FlowID != b.FlowID {
			return a.FlowID < b.FlowID
		}
		return a.InLink < b.InLink
	})
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, "%+v\n", r)
	}
	sum := c.Summarize()
	links := make([]int, 0, len(sum.LinkPackets))
	for l := range sum.LinkPackets {
		links = append(links, l)
	}
	sort.Ints(links)
	fmt.Fprintf(&sb, "nodes %v\nlinks", sum.NodePackets)
	for _, l := range links {
		fmt.Fprintf(&sb, " %d:%d", l, sum.LinkPackets[l])
	}
	fmt.Fprintf(&sb, "\nseries %v %v\n", c.Series().BucketWidth, c.Series().Loads)
	h := sha256.Sum256([]byte(sb.String()))
	return fmt.Sprintf("%d records %x", len(recs), h[:8])
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
// test against the map-keyed collector the slot store replaced (the store half,
// driven by synthetic streams against that collector kept verbatim, is
// netflow.TestCollectorMatchesReference). The digests were recorded from the
// keyed collector at f900919 on these same runs: every release discipline,
// finite buffers with drops, a truncated run, both dispatches, one crash, two
// crashes charged from the same cadence barrier, and a paper topology (the
// crash rows were recorded when a crash still rolled back and re-ran). The keyed collector could only be reached through emu.Run, whose
// hop stream no exported hook exposes, so it is pinned here rather than run
// side by side.
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
	// the same thing.
	const unfaulted = "640 records 5ae4d8e16ddb27e3"
	cases := []struct {
		name string
		cfg  emu.Config
		want string
	}{
		{"blast", dense(nil), unfaulted},
		{"blast-sequential", dense(func(c *emu.Config) { c.Sequential = true }), unfaulted},
		{"tcp", dense(func(c *emu.Config) { c.Transport = emu.TCPSlowStart }), "640 records 3ad70244bc9e9420"},
		{"buffered-drops", dense(func(c *emu.Config) {
			c.BufferBytes = 8 << 10
			c.Workload.Flows = append(c.Workload.Flows[:len(c.Workload.Flows):len(c.Workload.Flows)], shadowed)
		}), "641 records bd0d709db9470aec"},
		{"truncated", dense(func(c *emu.Config) { c.EndTime = 1.5 }), "300 records 5c9b86907873b7d7"},
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
			cfg := topConfig(t, "Campus", 30, false)
			cfg.Profile = true
			return cfg
		}(), "6610 records df9fa8ad70a5a199"},
	}
	for _, c := range cases {
		res, err := emu.Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := profileDigest(res.NetFlow)
		if got != c.want {
			t.Errorf("%s: collector digest %s, the keyed collector's was %s", c.name, got, c.want)
		}
		switch c.name {
		case "buffered-drops":
			if res.DroppedPackets == 0 {
				t.Error("buffered-drops dropped nothing")
			}
			for _, r := range res.NetFlow.Records() {
				if r.FlowID == shadowed.ID && r.Node != shadowed.Src {
					t.Errorf("flow %d lost every chunk at its source yet has a record at node %d", r.FlowID, r.Node)
				}
			}
		case "crash-rollback", "two-rollbacks-one-checkpoint":
			if res.Recovery == nil || res.Recovery.Failures != len(c.cfg.Faults.Crashes) {
				t.Errorf("%s: recovery %+v, want %d failures", c.name, res.Recovery, len(c.cfg.Faults.Crashes))
			}
		}
	}
}

// TestProfileRecordsIndependentOfMapping is the paper's premise — the mapping
// changes how fast the emulation runs, never what the emulated network does —
// checked on the one collector whose output order used to depend on it: with
// unbounded buffers, the records of a run under TOP, under a seeded random
// assignment and on a single engine agree in order, static fields, Packets
// and Bytes, and in First and Last.
func TestProfileRecordsIndependentOfMapping(t *testing.T) {
	for _, topology := range []string{"Campus", "TeraGrid"} {
		cfg := topConfig(t, topology, 30, true)
		cfg.Profile = true
		var want []netflow.Record
		for _, m := range mappingsOf(cfg, 7) {
			cfg := cfg
			cfg.Assignment, cfg.NumEngines = m.assignment, m.engines
			res, err := emu.Run(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", topology, m.name, err)
			}
			got := res.NetFlow.Records()
			if want == nil {
				want = got
				if len(want) == 0 {
					t.Fatalf("%s: no records", topology)
				}
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d records, TOP has %d", topology, m.name, len(got), len(want))
			}
			diffs := 0
			for i := range want {
				if got[i] != want[i] {
					if diffs++; diffs <= 3 {
						t.Errorf("%s %s: record %d is %+v, under TOP %+v", topology, m.name, i, got[i], want[i])
					}
				}
			}
			if diffs > 3 {
				t.Errorf("%s %s: %d of %d records differ from TOP's", topology, m.name, diffs, len(want))
			}
		}
	}
}
