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
// RunDynamic runs one emulation and remaps it at every multiple of an
// interval. A remap is an elastic resize that keeps the engine set: at the
// first window barrier at or after the boundary, the remap policy
// repartitions from the traffic measured since the previous boundary, the
// pending events move to the engines that now own their nodes, and every
// virtual node that changed engines stalls AppTime by the migration cost. The
// queues and the flows in flight carry across the boundary.
//
// The remapping signal is the paper's one measurement, the per-router NetFlow
// accounting of §3.3: the run profiles, and an interval's profile is the
// difference of the cumulative summaries at its two barriers, read exactly as
// the PROFILE approach reads its pre-run.

// RemapPolicy selects how RunDynamic recomputes the partition between
// intervals.
type RemapPolicy string

const (
	// RemapProfile repartitions each interval from scratch with the full
	// PROFILE pipeline — the best partition money can buy, paid for in
	// migrations.
	RemapProfile RemapPolicy = "profile"
	// RemapIncremental refines the previous assignment with the multilevel
	// partitioner's boundary refinement (mapping.ProfileImprove).
	RemapIncremental RemapPolicy = "incremental"
	// RemapGame plays the game-theoretic iterative repartitioner: every
	// virtual node selfishly trades load, cross-engine traffic and the
	// modeled migration cost until a Nash-style fixed point
	// (mapping.GameRemap).
	RemapGame RemapPolicy = "game"
	// RemapDiffusion is the traffic-blind load-diffusion baseline
	// (mapping.DiffusionRemap).
	RemapDiffusion RemapPolicy = "diffusion"
)

// RemapPolicies lists the valid policies in presentation order.
func RemapPolicies() []RemapPolicy {
	return []RemapPolicy{RemapProfile, RemapIncremental, RemapGame, RemapDiffusion}
}

// ParseRemapPolicy validates a policy name from a flag or config file.
func ParseRemapPolicy(s string) (RemapPolicy, error) {
	switch p := RemapPolicy(s); p {
	case RemapProfile, RemapIncremental, RemapGame, RemapDiffusion:
		return p, nil
	}
	return "", fmt.Errorf("core: unknown remap policy %q (want profile, incremental, game or diffusion)", s)
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
	// GameStats describes the game policy's convergence: best-response
	// rounds played, candidate moves costed, whether a fixed point was
	// certified before the round cap, and the non-increasing potential
	// trajectory. The other policies set only MovesTaken, their accepted
	// moves. A game player may move more than once on its way to the fixed
	// point, so MovesTaken can exceed the segment's Migrations, which counts
	// distinct nodes that changed engines.
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
	// Assignment is the node→engine assignment the interval ran under.
	Assignment []int
	// CrossEngineBytes is the engine-to-engine traffic volume between the
	// interval's barriers.
	CrossEngineBytes int64
	// Remap describes the remapping step that produced this segment's
	// assignment; nil for the first segment (which runs under TOP), for a
	// segment entered after an interval in which no flow started, and for one
	// the run ended before reaching.
	Remap *RemapStats
}

// DynamicResult reports a dynamically remapped emulation: the one run's
// Result, whose Membership lists the applied remaps and whose AppTime
// includes their migration stalls, viewed per interval.
type DynamicResult struct {
	*emu.Result
	// Segments views the run interval by interval, in order.
	Segments []DynamicSegment
	// MeanSegmentImbalance averages the imbalances of the intervals the run
	// reached in which flows started (the quantity remapping actually
	// optimizes — it tracks load shifts).
	MeanSegmentImbalance float64
	// Migrations is the total node-engine changes.
	Migrations int
}

// Timeline is the run's per-measurement-window imbalance / cross-engine
// traffic history, the curve the experiment reports render.
func (r *DynamicResult) Timeline() []telemetry.TrafficPoint { return r.Telemetry.Timeline }

// DefaultMigrationCost is the modeled stall per migrated node: shipping a
// router's state (routing table, queues) across 100 Mb/s Ethernet. Shared
// with crash recovery (emu.DefaultMigrationCost) so both remapping paths
// price migrations identically.
const DefaultMigrationCost = emu.DefaultMigrationCost

// maxIntervals bounds how many intervals RunDynamic cuts a workload into: each
// is a scheduled resize and a segment.
const maxIntervals = 1 << 16

// RunDynamic emulates the scenario once under the TOP partition, remapping it
// at every multiple of interval from the NetFlow profile of the interval
// before. migrationCost is the AppTime stall charged per migrated node
// (DefaultMigrationCost when <= 0). An interval in which no flow starts
// carries its assignment over. The scenario's EndTime, engine speeds and
// straggler schedule apply as in Run; a crash schedule is refused
// (RunResilient recovers crashes). Cancellation of ctx is observed at window
// barriers.
func (sc *Scenario) RunDynamic(ctx context.Context, interval, migrationCost float64) (*DynamicResult, error) {
	policy, err := sc.remapPolicy()
	if err != nil {
		return nil, err
	}
	if sc.Faults.HasCrashes() {
		return nil, fmt.Errorf("core: dynamic remapping takes no crash schedule (RunResilient recovers crashes)")
	}
	if migrationCost <= 0 {
		migrationCost = DefaultMigrationCost
	}
	w, err := sc.Workload()
	if err != nil {
		return nil, err
	}
	n := math.Ceil(w.Duration / interval)
	if !(interval > 0 && n >= 1 && n <= maxIntervals) { // false for NaN
		return nil, fmt.Errorf("core: dynamic remapping needs a positive interval cutting the workload's %g s into 1 to %d intervals, not %g",
			w.Duration, maxIntervals, interval)
	}
	in, err := sc.mappingInput()
	if err != nil {
		return nil, err
	}

	// Every boundary is a resize onto all engines; the policy decides.
	out := &DynamicResult{Segments: make([]DynamicSegment, int(n))}
	segs := out.Segments
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
	for _, f := range w.Flows {
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
	o, err := sc.run(ctx, mapping.Top, func(cfg emu.Config) (*emu.Result, error) {
		cfg.Profile, cfg.MigrationCost, cfg.Elastic, cfg.OnMembership = true, migrationCost, resizes, remap
		return sc.start(ctx, cfg, tel, sc.Trace)
	})
	if err != nil {
		return nil, fmt.Errorf("core: dynamic run: %w", err)
	}

	out.Result = o.Result
	measure(opened, o.Result.EngineLoads, o.Result.Telemetry.CrossEngineBytes)
	assignment, active := o.Assignment, 0
	for i := range segs {
		s := &segs[i]
		if i > 0 && i <= opened {
			r := o.Result.Membership.Resizes[i-1]
			assignment, s.Migrations = r.Assignment, r.Migrations
		}
		s.Assignment = assignment
		out.Migrations += s.Migrations
		if s.Flows > 0 && i <= opened {
			out.MeanSegmentImbalance += s.Imbalance
			active++
		}
	}
	if active > 0 {
		out.MeanSegmentImbalance /= float64(active)
	}
	return out, nil
}

// intervalProfile is the traffic now accounts beyond seen, a summary of the
// same collector taken at an earlier barrier (nil for none): packets per link
// and per node and the load series, each the difference, with links that
// carried nothing in between left out. The collector's counters only grow and
// hold whole packet counts (netflow.Collector.Observe); so this is what a
// collector that saw only the traffic in between would summarize. The result
// owns its series, which a collector's summaries share.
func intervalProfile(now, seen *netflow.Summary) *netflow.Summary {
	ns := now.NodeSeries
	empty := func() *netflow.Summary {
		return &netflow.Summary{LinkPackets: make(map[int]int64), NodePackets: make([]int64, len(now.NodePackets)),
			NodeSeries: metrics.NewSeries(ns.BucketWidth, ns.Nodes(), ns.Buckets())}
	}
	d := empty()
	if seen == nil {
		seen = empty()
	}
	for l, p := range now.LinkPackets {
		if p -= seen.LinkPackets[l]; p != 0 {
			d.LinkPackets[l] = p
		}
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
	case RemapIncremental:
		next, st.MovesTaken, err = mapping.ProfileImprove(in, assignment)
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
