package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/emu"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/netflow"
	"repro/internal/partition"
	"repro/internal/telemetry"
)

// Dynamic remapping — the paper's §6 conclusion: "Static partitions are
// fundamentally limited for large emulation if traffic varies widely...
// Dynamic remapping the virtual network during the emulation is the only
// solution. Such dynamic remapping is a major challenge for distributed
// emulators like MaSSF."
//
// Scenario.RemapEvery remaps a run at every multiple of an interval. A remap
// is an elastic resize that keeps the engine set: at the first window barrier
// at or after the boundary, the remap policy repartitions from the traffic
// measured since the previous boundary, the pending events move to the
// engines that now own their nodes, and every virtual node that changed
// engines stalls AppTime by the migration cost. The queues and the flows in
// flight carry across the boundary.
//
// The remapping signal is the paper's one measurement, the per-router NetFlow
// accounting of §3.3: the run profiles, and an interval's profile is the
// difference of the cumulative summaries at its two barriers, read exactly as
// the PROFILE approach reads its pre-run.

// RemapPolicy selects how a remapped run recomputes the partition between
// intervals.
type RemapPolicy string

const (
	// RemapProfile repartitions each interval from scratch with the full
	// PROFILE pipeline — the best partition money can buy, paid for in
	// migrations.
	RemapProfile RemapPolicy = "profile"
	// RemapGame plays the game-theoretic iterative repartitioner: every
	// virtual node selfishly trades load, cross-engine traffic and the
	// modeled migration cost until a Nash-style fixed point
	// (mapping.GameRemap).
	RemapGame RemapPolicy = "game"
	// RemapDiffusion is the traffic-blind load-diffusion baseline
	// (mapping.DiffusionRemap).
	RemapDiffusion RemapPolicy = "diffusion"
)

// ParseRemapPolicy validates a policy name from a flag or config file. An
// unknown name is an ErrRunConfig.
func ParseRemapPolicy(s string) (RemapPolicy, error) {
	switch p := RemapPolicy(s); p {
	case RemapProfile, RemapGame, RemapDiffusion:
		return p, nil
	}
	return "", fmt.Errorf("%w: unknown remap policy %q (want profile, game or diffusion)", ErrRunConfig, s)
}

// remapPolicy resolves the scenario's effective policy: RemapProfile when
// Remap is unset.
func (sc *Scenario) remapPolicy() (RemapPolicy, error) {
	if sc.Remap == "" {
		return RemapProfile, nil
	}
	return ParseRemapPolicy(string(sc.Remap))
}

// RemapStats reports the remapping step that produced a segment's
// assignment.
type RemapStats struct {
	// Policy is the remap policy that ran.
	Policy RemapPolicy
	// GameStats describes the game policy's convergence: rounds played,
	// moves costed, whether a fixed point was certified before the round cap,
	// and the non-increasing potential trajectory. The other policies set only
	// MovesTaken. A game player may move more than once, so MovesTaken can
	// exceed the segment's Migrations, the distinct nodes that moved.
	partition.GameStats
}

// DynamicSegment reports one remapping interval.
type DynamicSegment struct {
	// Start is the interval's beginning in virtual seconds.
	Start float64
	// Imbalance is the load imbalance of the kernel events executed between
	// the barriers that opened and closed the interval.
	Imbalance float64
	// Migrations is the number of nodes that changed engines entering this
	// interval.
	Migrations int
	// Flows is the number of flows starting during this interval (the last
	// interval takes every later one).
	Flows int
	// CrossEngineBytes is the engine-to-engine traffic volume between the
	// interval's barriers.
	CrossEngineBytes int64
	// Remap describes the step that produced this segment's assignment; nil
	// for the first segment (the approach's mapping), for one entered after an
	// interval in which no flow started, and for one the run never reached.
	Remap *RemapStats
}

// DefaultMigrationCost is the modeled stall per migrated node, shared by
// crash recovery and remapping: a router's state over 100 Mb/s Ethernet.
const DefaultMigrationCost = emu.DefaultMigrationCost

// maxIntervals bounds how many intervals RemapEvery cuts a workload into:
// each is a scheduled resize and a segment.
const maxIntervals = 1 << 16

// intervals is how many RemapEvery intervals the workload spans.
func (sc *Scenario) intervals() (int, error) {
	w, err := sc.Workload()
	if err != nil {
		return 0, err
	}
	n := math.Ceil(w.Duration / sc.RemapEvery)
	if !(sc.RemapEvery > 0 && n >= 1 && n <= maxIntervals) { // false for NaN
		return 0, fmt.Errorf("%w: RemapEvery must be positive and cut the workload's %g s into 1 to %d intervals, not %g",
			ErrRunConfig, w.Duration, maxIntervals, sc.RemapEvery)
	}
	return int(n), nil
}

// runDynamic runs cfg, the in-process configuration of o's assignment,
// remapping it at every multiple of RemapEvery from the NetFlow profile of
// the interval before, and fills o with the result and its per-interval view.
// An interval in which no flow starts carries its assignment over. Run has
// validated the interval and the policy.
func (sc *Scenario) runDynamic(ctx context.Context, cfg emu.Config, o *Outcome) error {
	policy, _ := sc.remapPolicy()
	n, _ := sc.intervals()
	interval, migrationCost := sc.RemapEvery, cfg.MigrationCost
	if migrationCost <= 0 {
		migrationCost = DefaultMigrationCost
	}
	in := sc.mappingInput()

	// Every boundary is a resize onto all engines; the policy decides.
	segs := make([]DynamicSegment, n)
	all := make([]int, sc.Engines)
	for e := range all {
		all[e] = e
	}
	var resizes []emu.Resize
	for i := range segs {
		segs[i].Start = float64(i) * interval
		if i > 0 {
			resizes = append(resizes, emu.Resize{At: segs[i].Start, Engines: all})
		}
	}
	for _, f := range cfg.Workload.Flows {
		segs[sort.Search(len(segs), func(i int) bool { return segs[i].Start > f.Start })-1].Flows++
	}

	tel := sc.newTelemetry()
	if tel == nil {
		tel = telemetry.New()
	}
	// measure closes segment i at a barrier with these cumulative engine loads
	// and cross-engine bytes.
	lastLoads, lastCross := make([]float64, sc.Engines), int64(0)
	measure := func(i int, loads []float64, cross int64) {
		l := make([]float64, len(loads))
		for e := range l {
			l[e] = loads[e] - lastLoads[e]
		}
		segs[i].Imbalance, segs[i].CrossEngineBytes = metrics.Imbalance(l), cross-lastCross
		lastLoads, lastCross = loads, cross
	}
	var seen *netflow.Summary
	opened := 0 // the segment the run is in: one per boundary applied
	remap := func(c emu.MembershipChange) ([]int, error) {
		measure(opened, c.Loads, tel.Snapshot().CrossEngineBytes)
		opened++
		now := c.NetFlow.Summarize()
		in := in
		in.Summary = intervalProfile(now, seen)
		seen = intervalProfile(now, nil)
		if segs[opened-1].Flows == 0 {
			return c.Previous, nil
		}
		next, stats, err := remapStep(policy, in, c.Previous, migrationCost/interval)
		if err != nil {
			return nil, fmt.Errorf("core: dynamic %s remap: %w", policy, err)
		}
		segs[opened].Remap = stats
		return next, nil
	}
	cfg.Profile, cfg.Elastic, cfg.OnMembership = true, resizes, remap
	res, err := sc.start(ctx, cfg, tel, sc.Trace)
	if err != nil {
		return err
	}

	o.Result, o.Segments = res, segs
	measure(opened, res.EngineLoads, res.Telemetry.CrossEngineBytes)
	active := 0
	for i := range segs {
		s := &segs[i]
		if i > 0 && i <= opened {
			s.Migrations = res.Membership.Resizes[i-1].Migrations
		}
		o.Migrations += s.Migrations
		if s.Flows > 0 && i <= opened {
			o.MeanSegmentImbalance += s.Imbalance
			active++
		}
	}
	if active > 0 {
		o.MeanSegmentImbalance /= float64(active)
	}
	return nil
}

// intervalProfile is the traffic now accounts beyond seen, a summary of the
// same collector taken at an earlier barrier (nil for none): packets per link
// and per node and the load series, each the difference. The collector's
// counters only grow and hold whole packet counts (netflow.Collector.Observe);
// so this is what a collector that saw only the traffic in between would
// summarize. The result owns its series, which a collector's summaries share.
func intervalProfile(now, seen *netflow.Summary) *netflow.Summary {
	ns := now.NodeSeries
	empty := func() *netflow.Summary {
		return &netflow.Summary{LinkPackets: make([]int64, len(now.LinkPackets)), NodePackets: make([]int64, len(now.NodePackets)),
			NodeSeries: metrics.NewSeries(ns.BucketWidth, ns.Nodes(), ns.Buckets())}
	}
	d := empty()
	if seen == nil {
		seen = empty()
	}
	for l, p := range now.LinkPackets {
		d.LinkPackets[l] = p - seen.LinkPackets[l]
	}
	for v, p := range now.NodePackets {
		d.NodePackets[v] = p - seen.NodePackets[v]
	}
	for b, row := range ns.Loads {
		for v, x := range row {
			d.NodeSeries.Loads[b][v] = x - seen.NodeSeries.Loads[b][v]
		}
	}
	return d
}

// remapStep recomputes the assignment from the interval's measured profile
// under the selected policy, returning the next assignment (a fresh slice)
// and the step's stats. migration is the game policy's migration penalty in
// its normalized units: the fraction of the interval one migration stalls.
func remapStep(policy RemapPolicy, in mapping.Input, assignment []int, migration float64) ([]int, *RemapStats, error) {
	st := &RemapStats{Policy: policy}
	var next []int
	var err error
	switch policy {
	case RemapGame:
		// The tie-break seed derives from PartSeed inside GameRemap.
		var gs *partition.GameStats
		if next, _, gs, err = mapping.GameRemap(in, assignment, partition.GameOptions{MigrationCost: migration}); err == nil {
			st.GameStats = *gs
		}
	case RemapDiffusion:
		next, st.MovesTaken, err = mapping.DiffusionRemap(in, assignment)
	default: // RemapProfile
		next, err = mapping.ProfileMap(in)
		for v := range next {
			if next[v] != assignment[v] {
				st.MovesTaken++
			}
		}
	}
	return next, st, err
}
