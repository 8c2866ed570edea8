// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the topology setup (Table 1), load variation over an
// emulation's lifetime (Figure 2), load imbalance for ScaLapack and GridNPB
// across Campus/TeraGrid/Brite × TOP/PLACE/PROFILE (Figures 4, 5),
// application emulation times (Figures 6, 7), fine-grained imbalance
// (Figure 8), the large-network scalability study (Table 2), and isolated
// network-emulation replay times (Figures 9, 10).
//
// Experiments run a time-compressed configuration by default (120 virtual
// seconds instead of the paper's ~600/900 s application runs) with traffic
// intensity scaled to preserve engine utilization; Config.Full restores the
// paper's durations.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// Config tunes the experiment harness.
type Config struct {
	// Duration is the virtual length of each emulation in seconds
	// (default 120; Full overrides to the paper's application runtimes).
	// NaN and ±Inf are refused.
	Duration float64
	// Full runs the paper's durations (ScaLapack 600 s, GridNPB 900 s).
	Full bool
	// Seed drives all generators and the partitioner.
	Seed int64
	// Sequential is ignored: the kernel runs every window on one goroutine.
	// It stays only for callers written against the retired in-process
	// parallel kernel.
	Sequential bool
	// SerialSuite runs RunSuite's topology cells one at a time instead of
	// fanning them out over the worker pool — the reference execution the
	// parallel-determinism regression tests compare against.
	SerialSuite bool
	// CellRecorder, when non-nil, supplies an observability recorder per
	// suite cell (keyed by topology name). Attaching a recorder also makes
	// that cell's three approaches run serially, so each per-cell trace is
	// byte-identical whether the suite itself ran fanned-out or serial.
	CellRecorder func(topology string) obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 && !math.IsInf(c.Duration, -1) { // scenario refuses -Inf with NaN and +Inf
		c.Duration = 120
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

func (c Config) durationFor(app string) float64 {
	if !c.Full {
		return c.Duration
	}
	if app == "GridNPB" {
		return 900
	}
	return 600
}

// scalapack builds the paper's foreground solver with traffic intensity
// matched to the experiment duration (the 10-minute run compressed into
// Duration keeps per-second load comparable by scaling transfer volume).
func (c Config) scalapack(duration float64) apps.ScaLapack {
	s := apps.DefaultScaLapack()
	s.Duration = duration
	// Hold the communication rate constant across durations at the level
	// that loads the modeled Pentium-II engines the way the paper's live
	// runs did (§4.1.2): the engines must saturate under a poor mapping for
	// the emulation-time effects of Figures 6/7 to be visible.
	s.ScaleBytes = 70 * duration / 600
	if s.ScaleBytes < 1 {
		s.ScaleBytes = 1
	}
	return s
}

func (c Config) gridnpb(duration float64) apps.GridNPB {
	g := apps.DefaultGridNPB()
	g.Duration = duration
	g.ScaleBytes = 1
	return g
}

// background is the paper's §4.1.4 HTTP table ("moderate background
// traffic") over the experiment duration.
func (c Config) background(duration float64) traffic.HTTPSpec {
	bg := traffic.DefaultHTTP(duration, c.Seed+101)
	bg.Servers = 30
	return bg
}

// scenario assembles one topology × application study.
func (c Config) scenario(topology, app string) (*core.Scenario, error) {
	if math.IsNaN(c.Duration) || math.IsInf(c.Duration, 0) {
		return nil, fmt.Errorf("experiments: Duration %g is not finite", c.Duration)
	}
	nw, err := topogen.ByName(topology, c.Seed)
	if err != nil {
		return nil, err
	}
	engines := 0
	for _, s := range append(topogen.Table1(), topogen.Table2Spec()) {
		if s.Name == topology {
			engines = s.Engines
		}
	}
	if engines == 0 {
		return nil, fmt.Errorf("experiments: no engine count for topology %q", topology)
	}
	duration := c.durationFor(app)
	sc := &core.Scenario{
		Name:       fmt.Sprintf("%s/%s", topology, app),
		Network:    nw,
		Engines:    engines,
		Background: c.background(duration),
		AppSeed:    c.Seed + 5,
		PartSeed:   c.Seed + 3,
		Cluster:    true,
		// The report's kernel-observability section reads each run's
		// aggregated counters from Result.Obs.
		CollectStats: true,
		// The traffic-plane section reads each run's measured traffic matrix
		// and per-window timeline from Result.Telemetry. Fresh per-run
		// collectors, so the suite's cell fan-out stays parallel.
		CollectTelemetry: true,
	}
	switch app {
	case "ScaLapack":
		sc.App = c.scalapack(duration)
	case "GridNPB":
		sc.App = c.gridnpb(duration)
	default:
		return nil, fmt.Errorf("experiments: unknown app %q", app)
	}
	return sc, nil
}

// ScenarioFor exposes the harness's scenario construction (topology name
// from Table 1 or "Brite-large", app "ScaLapack" or "GridNPB") so the CLI
// tools and examples run exactly the evaluation's configurations.
func ScenarioFor(cfg Config, topology, app string) (*core.Scenario, error) {
	return cfg.withDefaults().scenario(topology, app)
}

// Cell is one (topology, approach) measurement.
type Cell struct {
	Topology  string
	Engines   int
	Approach  mapping.Approach
	Imbalance float64
	AppTime   float64
	NetTime   float64
	Lookahead float64
	Windows   int64
	Remote    int64

	// Kernel observability counters (from the run's obs.RunStats).
	Events int64 // total kernel events processed
	// MaxQueue is the deepest per-engine pending-event queue seen at any
	// window barrier — the kernel's memory high-water mark.
	MaxQueue int64

	// Traffic-plane telemetry (from the run's telemetry.Snapshot).
	// CrossEngineBytes is the volume carried between distinct engines — the
	// quantity the PLACE/PROFILE mappings minimize alongside imbalance.
	CrossEngineBytes int64
	// TotalBytes is the total transmitted volume, the denominator for the
	// cross-engine fraction.
	TotalBytes int64
}

// CrossFraction is the share of transmitted bytes that crossed engines.
func (c Cell) CrossFraction() float64 {
	if c.TotalBytes == 0 {
		return 0
	}
	return float64(c.CrossEngineBytes) / float64(c.TotalBytes)
}

// Suite is the full 3-topology × 3-approach grid for one application —
// the data behind Figures 4/6/9 (ScaLapack) and 5/7/10 (GridNPB).
type Suite struct {
	App   string
	Cells []Cell
	// EngineSeries keeps each run's bucketed engine loads for Figure 8.
	EngineSeries map[string]*metrics.Series // key: topology + "/" + approach
	// Timelines keeps each run's per-measurement-window imbalance /
	// cross-engine-traffic history from the telemetry plane (same keying).
	Timelines map[string][]telemetry.TrafficPoint
}

// RunSuite executes one application across the three Table 1 topologies and
// all three mapping approaches on the shared workload. The topology cells
// are independent scenarios, so they run concurrently on a bounded worker
// pool (serially under Config.SerialSuite); cells are assembled in the
// Table 1 topology × approach order regardless of completion order, and
// every cell's results are identical to a serial execution's.
func RunSuite(app string, cfg Config) (*Suite, error) {
	cfg = cfg.withDefaults()
	specs := topogen.Table1()
	cellOuts := make([][]*core.Outcome, len(specs))
	workers := 0
	if cfg.SerialSuite {
		workers = 1
	}
	err := parallel.ForEachErr(len(specs), workers, func(i int) error {
		sc, err := cfg.scenario(specs[i].Name, app)
		if err != nil {
			return err
		}
		if cfg.CellRecorder != nil {
			sc.Recorder = cfg.CellRecorder(specs[i].Name)
		}
		cellOuts[i], err = sc.RunAll(context.Background())
		return err
	})
	if err != nil {
		return nil, err
	}
	suite := &Suite{
		App:          app,
		EngineSeries: make(map[string]*metrics.Series),
		Timelines:    make(map[string][]telemetry.TrafficPoint),
	}
	for i, spec := range specs {
		for _, o := range cellOuts[i] {
			cell := Cell{
				Topology:  spec.Name,
				Engines:   spec.Engines,
				Approach:  o.Approach,
				Imbalance: o.Result.Imbalance,
				AppTime:   o.Result.AppTime,
				NetTime:   o.Result.NetTime,
				Lookahead: o.Result.Lookahead,
				Windows:   o.Result.Kernel.Windows,
				Remote:    o.Result.RemoteEvents,
			}
			if st := o.Result.Obs; st != nil {
				cell.Events = st.TotalEvents()
				for _, q := range st.MaxQueue {
					if q > cell.MaxQueue {
						cell.MaxQueue = q
					}
				}
			}
			key := spec.Name + "/" + string(o.Approach)
			if ts := o.Result.Telemetry; ts != nil {
				cell.CrossEngineBytes = ts.CrossEngineBytes
				cell.TotalBytes = ts.TotalBytes
				suite.Timelines[key] = ts.Timeline
			}
			suite.Cells = append(suite.Cells, cell)
			suite.EngineSeries[key] = o.Result.EngineSeries
		}
	}
	return suite, nil
}

// Get returns the cell for a topology and approach.
func (s *Suite) Get(topology string, a mapping.Approach) (Cell, bool) {
	for _, c := range s.Cells {
		if c.Topology == topology && c.Approach == a {
			return c, true
		}
	}
	return Cell{}, false
}

// ---- Table 1 ----

// Table1 renders the paper's Table 1, verifying the generators against it.
func Table1(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %6s %22s\n", "Topology", "Router", "Host", "Emulation Engine Node")
	for _, spec := range topogen.Table1() {
		nw, err := topogen.ByName(spec.Name, cfg.Seed)
		if err != nil {
			return "", err
		}
		if nw.NumRouters() != spec.Routers || nw.NumHosts() != spec.Hosts {
			return "", fmt.Errorf("experiments: %s generated %d/%d, Table 1 says %d/%d",
				spec.Name, nw.NumRouters(), nw.NumHosts(), spec.Routers, spec.Hosts)
		}
		fmt.Fprintf(&b, "%-10s %8d %6d %22d\n", spec.Name, spec.Routers, spec.Hosts, spec.Engines)
	}
	return b.String(), nil
}

// ---- Figure 2 ----

// Fig2 reproduces "Load Variation Over the Lifetime of an Emulation": the
// per-engine load curve of a profiling run (GridNPB on Campus under the TOP
// partition).
func Fig2(cfg Config) (*metrics.Series, error) {
	cfg = cfg.withDefaults()
	sc, err := cfg.scenario("Campus", "GridNPB")
	if err != nil {
		return nil, err
	}
	o, err := sc.Run(context.Background(), mapping.Top)
	if err != nil {
		return nil, err
	}
	return o.Result.EngineSeries, nil
}

// ---- Figures 4-7, 9-10 ----

// FigImbalance renders the Figure 4/5 bar data: normalized load imbalance
// per topology and approach.
func FigImbalance(s *Suite) string {
	return renderGrid(s, "Load Imbalance (normalized std dev)", func(c Cell) float64 { return c.Imbalance }, "%.3f")
}

// FigAppTime renders the Figure 6/7 data: application emulation time.
func FigAppTime(s *Suite) string {
	return renderGrid(s, "Application Emulation Time (s)", func(c Cell) float64 { return c.AppTime }, "%.1f")
}

// FigNetTime renders the Figure 9/10 data: isolated network emulation
// (replay) time.
func FigNetTime(s *Suite) string {
	return renderGrid(s, "Isolated Network Emulation Time (s)", func(c Cell) float64 { return c.NetTime }, "%.1f")
}

// FigCrossTraffic renders the telemetry plane's cross-engine traffic share
// per topology and approach — the cut quality the mapping strategies trade
// against balance (beyond the paper's figures; measured, not modeled).
func FigCrossTraffic(s *Suite) string {
	return renderGrid(s, "Cross-Engine Traffic (fraction of bytes)", func(c Cell) float64 { return c.CrossFraction() }, "%.3f")
}

func renderGrid(s *Suite, title string, val func(Cell) float64, format string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", title, s.App)
	fmt.Fprintf(&b, "%-10s", "Topology")
	for _, a := range mapping.Approaches() {
		fmt.Fprintf(&b, " %10s", a)
	}
	b.WriteString("\n")
	var tops []string
	seen := map[string]bool{}
	for _, c := range s.Cells {
		if !seen[c.Topology] {
			seen[c.Topology] = true
			tops = append(tops, c.Topology)
		}
	}
	for _, t := range tops {
		fmt.Fprintf(&b, "%-10s", t)
		for _, a := range mapping.Approaches() {
			c, _ := s.Get(t, a)
			fmt.Fprintf(&b, " %10s", fmt.Sprintf(format, val(c)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---- Figure 8 ----

// Fig8Result holds the fine-grained (2-second interval) imbalance curves of
// the Campus GridNPB emulation under TOP and PROFILE.
type Fig8Result struct {
	BucketWidth float64
	Top         []float64
	Profile     []float64
}

// Fig8 computes the fine-grained load imbalance comparison of Figure 8 from
// a GridNPB suite (reusing its Campus runs).
func Fig8(s *Suite) (*Fig8Result, error) {
	top, ok := s.EngineSeries["Campus/TOP"]
	if !ok {
		return nil, fmt.Errorf("experiments: suite has no Campus/TOP series")
	}
	prof, ok := s.EngineSeries["Campus/PROFILE"]
	if !ok {
		return nil, fmt.Errorf("experiments: suite has no Campus/PROFILE series")
	}
	return &Fig8Result{
		BucketWidth: top.BucketWidth,
		Top:         top.ImbalancePerBucket(),
		Profile:     prof.ImbalancePerBucket(),
	}, nil
}

// Render prints the two curves side by side.
func (f *Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString("Fine-Grained Load Imbalance (GridNPB on Campus, 2s intervals)\n")
	fmt.Fprintf(&b, "%8s %10s %10s\n", "t(s)", "TOP", "PROFILE")
	n := len(f.Top)
	if len(f.Profile) < n {
		n = len(f.Profile)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%8.0f %10.3f %10.3f\n", float64(i)*f.BucketWidth, f.Top[i], f.Profile[i])
	}
	fmt.Fprintf(&b, "%8s %10.3f %10.3f  (mean over active buckets)\n", "mean",
		meanActive(f.Top), meanActive(f.Profile))
	return b.String()
}

// FigTrafficTimeline renders the per-window traffic-plane history of one
// topology's runs under TOP and PROFILE side by side: measured load imbalance
// and cross-engine bytes per measurement window. This is the live-telemetry
// analogue of Figure 8 — it shows *why* PROFILE wins (smaller imbalance at
// comparable or lower cross-engine volume), window by window.
func FigTrafficTimeline(s *Suite, topology string) (string, error) {
	top, ok := s.Timelines[topology+"/TOP"]
	if !ok {
		return "", fmt.Errorf("experiments: suite has no %s/TOP timeline", topology)
	}
	prof, ok := s.Timelines[topology+"/PROFILE"]
	if !ok {
		return "", fmt.Errorf("experiments: suite has no %s/PROFILE timeline", topology)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Traffic-plane timeline (%s on %s, per measurement window)\n", s.App, topology)
	fmt.Fprintf(&b, "%8s %12s %14s %12s %14s\n", "t(s)", "TOP imbal", "TOP xMB", "PROF imbal", "PROF xMB")
	n := len(top)
	if len(prof) > n {
		n = len(prof)
	}
	step := n/15 + 1
	for i := 0; i < n; i += step {
		var tt, pt telemetry.TrafficPoint
		if i < len(top) {
			tt = top[i]
		}
		if i < len(prof) {
			pt = prof[i]
		}
		t := tt.Time
		if t == 0 {
			t = pt.Time
		}
		fmt.Fprintf(&b, "%8.0f %12.3f %14.2f %12.3f %14.2f\n", t,
			tt.Imbalance, float64(tt.CrossEngineBytes)/1e6,
			pt.Imbalance, float64(pt.CrossEngineBytes)/1e6)
	}
	return b.String(), nil
}

func meanActive(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ---- Table 2 ----

// Table2Row is one approach's measurement on the large Brite network.
type Table2Row struct {
	Approach  mapping.Approach
	Imbalance float64
	AppTime   float64
}

// Table2 runs the scalability study of §4.2.3: ScaLapack on the 200-router /
// 364-host Brite network over 20 simulation engines.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	sc, err := cfg.scenario("Brite-large", "ScaLapack")
	if err != nil {
		return nil, err
	}
	outs, err := sc.RunAll(context.Background())
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(outs))
	for i, o := range outs {
		rows[i] = Table2Row{
			Approach:  o.Approach,
			Imbalance: o.Result.Imbalance,
			AppTime:   o.Result.AppTime,
		}
	}
	return rows, nil
}

// RenderTable2 formats the Table 2 rows the way the paper lays them out.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s", "ScaLapack")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10s", r.Approach)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-34s", "Load Imbalance (Std. Deviation)")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10.3f", r.Imbalance)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-34s", "Execution Time (second)")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10.1f", r.AppTime)
	}
	b.WriteString("\n")
	return b.String()
}
