// Package mapping implements the paper's three network-mapping approaches —
// the heart of its contribution (§3):
//
//   - TOP (§3.1): topology only. Vertex weight is the total bandwidth in and
//     out of the node; the single objective maximizes link latency across
//     partitions (encoded as minimizing a cut whose edge weights fall with
//     latency).
//   - PLACE (§3.2): topology plus application placement. Background traffic
//     is predicted from the generators' own specifications, foreground
//     traffic from the application's injection points assuming full access-
//     link utilization spread evenly over all peers; routes come from the
//     route oracle the emulator forwards with (the paper ran ICMP
//     traceroutes inside MaSSF instead; see EXPERIMENTS.md). Enables the
//     second objective (minimize traffic across partitions) via
//     multi-objective combination.
//   - PROFILE (§3.3): NetFlow profile data from a prior run supplies exact
//     per-link and per-node loads; optionally the emulation timeline is
//     clustered into segments at dominating-node changes and each segment
//     becomes an extra balance constraint (multi-constraint partitioning).
//
// All three reduce to inputs for the multilevel partitioner in
// internal/partition.
package mapping

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/netflow"
	"repro/internal/netgraph"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/traffic"
)

// Approach names one of the paper's three mapping strategies.
type Approach string

// The three approaches evaluated in the paper.
const (
	Top     Approach = "TOP"
	Place   Approach = "PLACE"
	Profile Approach = "PROFILE"
)

// Approaches lists all three in the paper's presentation order.
func Approaches() []Approach { return []Approach{Top, Place, Profile} }

// DefaultLatencyPriority is the paper's default latency:traffic priority
// ratio of 6:4 (§5: "the default latency/traffic priority ratio is 6:4").
const DefaultLatencyPriority = 0.6

// Input carries everything a mapping approach may need. TOP uses only the
// network; PLACE additionally uses Background and AppHosts; PROFILE uses
// Summary (and Cluster).
type Input struct {
	// Network is the virtual topology. Required.
	Network *netgraph.Network
	// Routes is the route oracle. Leaving it nil takes the network's shared
	// oracle (Network.SharedRouting). It is memoized per network, but
	// core-driven runs still thread core.Scenario.Routes() through here (the
	// "built exactly once per scenario" tests enforce it), so the fallback
	// exists only for callers invoking an approach standalone.
	Routes netgraph.Routing
	// K is the number of simulation-engine nodes. Required.
	K int
	// PartOpts tunes the underlying partitioner (seed, imbalance, ...).
	PartOpts partition.Options
	// LatencyPriority is the multi-objective weight p of the latency
	// objective against the traffic objective's 1-p, in (0, 1]; 1 is pure
	// latency. 0 means unset and selects DefaultLatencyPriority, so pure
	// traffic (p = 0) is not expressible; NaN, negative and > 1 are
	// ErrBadInput.
	LatencyPriority float64
	// MTUBytes converts predicted byte rates into packet rates; default 1500.
	MTUBytes float64
	// InjectionCapBps caps PLACE's assumed per-injection-point bandwidth
	// ("the application fully utilizes the network link at each injection
	// point"): a 2003-era node drives at most Fast-Ethernet rates no matter
	// how fat its access link is. Default 100 Mb/s.
	InjectionCapBps float64

	// Background is the predicted background traffic (PLACE), typically
	// HTTPSpec.Predict output.
	Background []traffic.PairRate
	// AppHosts are the foreground application's injection points (PLACE).
	AppHosts []int

	// Summary is the measured per-node / per-link traffic driving PROFILE:
	// the NetFlow aggregation (netflow.Collector.Summarize) of a profiling
	// run — the offline pre-run of §3.3, or the previous interval of the
	// closed remapping loop.
	Summary *netflow.Summary
	// Cluster enables the §3.3 timeline clustering, turning emulation
	// stages into extra balance constraints (PROFILE).
	Cluster bool
	// MaxSegments caps the clustering constraints; default 4.
	MaxSegments int
	// EngineFractions optionally targets heterogeneous engine capacities:
	// engine p should receive EngineFractions[p] of the load (normalized
	// internally). Copied into the partitioner's PartFractions. This is the
	// §5 gap ("currently assumes homogeneous physical resources") closed.
	// Read like emu.Config.EngineSpeeds: an entry <= 0 counts as 1, NaN and
	// +Inf are ErrBadInput, and a length other than K means uniform.
	EngineFractions []float64
}

func (in *Input) defaults() error {
	if in.Network == nil {
		return fmt.Errorf("%w: Network is required", ErrBadInput)
	}
	if in.K < 1 {
		return fmt.Errorf("%w: K = %d, must be >= 1", ErrBadInput, in.K)
	}
	if n := in.Network.NumNodes(); in.K > n {
		return fmt.Errorf("%w: K = %d exceeds %d nodes", ErrInfeasible, in.K, n)
	}
	if in.Routes == nil {
		in.Routes = in.Network.SharedRouting()
	}
	if !(in.LatencyPriority >= 0 && in.LatencyPriority <= 1) {
		return fmt.Errorf("%w: LatencyPriority = %v, must be in (0, 1] (0 = default)", ErrBadInput, in.LatencyPriority)
	}
	if in.LatencyPriority == 0 {
		in.LatencyPriority = DefaultLatencyPriority
	}
	if eps := in.PartOpts.Imbalance; math.IsNaN(eps) || math.IsInf(eps, 1) {
		return fmt.Errorf("%w: PartOpts.Imbalance = %v, must be finite", ErrBadInput, eps)
	}
	if in.MTUBytes <= 0 {
		in.MTUBytes = 1500
	}
	if in.InjectionCapBps <= 0 {
		in.InjectionCapBps = 100e6
	}
	if in.MaxSegments <= 0 {
		in.MaxSegments = 4
	}
	// Mapping quality matters more than mapping speed here (the paper's
	// partitions are computed offline); spend more partitioner effort than
	// the library defaults. Beyond largeGraphNodes that budget would take
	// the multilevel partitioner from seconds to minutes, so huge topologies
	// drop to a lean effort profile instead.
	large := in.Network.NumNodes() >= largeGraphNodes
	if in.PartOpts.Restarts == 0 {
		if large {
			in.PartOpts.Restarts = 2
		} else {
			in.PartOpts.Restarts = 20
		}
	}
	if in.PartOpts.RefinePasses == 0 {
		if large {
			in.PartOpts.RefinePasses = 4
		} else {
			in.PartOpts.RefinePasses = 16
		}
	}
	// Engine capacities are read the way emu reads the speeds they come from
	// (see EngineFractions).
	for p, f := range in.EngineFractions {
		if math.IsNaN(f) || math.IsInf(f, 1) {
			return fmt.Errorf("%w: EngineFractions[%d] = %v, must be finite", ErrBadInput, p, f)
		}
	}
	if len(in.EngineFractions) == in.K && in.PartOpts.PartFractions == nil {
		frac := make([]float64, in.K)
		var sum float64
		for p, f := range in.EngineFractions {
			if f <= 0 {
				f = 1
			}
			frac[p] = f
			sum += f
		}
		for p := range frac {
			frac[p] /= sum
		}
		in.PartOpts.PartFractions = frac
	}
	// A slightly loose ceiling lands better final balance than a tight one:
	// with ε=0.05 the refiner rejects moves into near-full parts and wedges
	// early; ε=0.10 lets load flow and converges closer to even.
	if in.PartOpts.Imbalance == 0 {
		in.PartOpts.Imbalance = 0.10
	}
	return nil
}

// Map dispatches to the named approach.
func Map(a Approach, in Input) ([]int, error) {
	switch a {
	case Top:
		return TopMap(in)
	case Place:
		return PlaceMap(in)
	case Profile:
		return ProfileMap(in)
	default:
		return nil, fmt.Errorf("%w: unknown approach %q", ErrBadInput, a)
	}
}

// baseGraph builds the partition graph skeleton: one vertex per network
// node, one edge per link (parallel links merge), ncon constraints with all
// weights zeroed for the caller to fill.
func baseGraph(nw *netgraph.Network, ncon int) *partition.Graph {
	g := partition.NewGraph(nw.NumNodes(), ncon)
	for v := 0; v < nw.NumNodes(); v++ {
		for c := 0; c < ncon; c++ {
			g.VWgt[v][c] = 0
		}
	}
	for _, l := range nw.Links {
		g.AddEdge(l.A, l.B, 0)
	}
	return g
}

// latencyWeights encodes "maximize cut latency" as a minimization: an edge's
// weight is inversely proportional to its (merged) minimum latency, so the
// partitioner prefers cutting long-haul links and keeps low-latency LAN
// links together — the DaSSF/MaSSF convention.
func latencyWeights(nw *netgraph.Network, g *partition.Graph) partition.EdgeWeightSet {
	// Per edge, 1 + the index of its first lowest-latency link.
	minLat := func(best int64, i int) int64 {
		if best == 0 || nw.Links[i].Latency < nw.Links[best-1].Latency {
			return int64(i) + 1
		}
		return best
	}
	weight := func(best int64) int64 {
		const scale = 10e-3 // a 10 ms link weighs 1; a 0.1 ms link weighs 100
		lat := nw.Links[best-1].Latency
		if !(lat > 0) {
			return 1000 // zero-latency: never cut if avoidable
		}
		return max(1, int64(math.Round(scale/lat)))
	}
	return linkWeights(nw, g, minLat, weight)
}

// linkWeights folds the links of nw into g's edges (parallel links merge into
// one) without a map: per edge, a value starts at 0 and becomes fold(value,
// i) for each of its links i in nw.Links order; the edge then weighs
// weight(value).
func linkWeights(nw *netgraph.Network, g *partition.Graph, fold func(value int64, i int) int64, weight func(value int64) int64) partition.EdgeWeightSet {
	ws := partition.NewEdgeWeightSet(g)
	for i, l := range nw.Links {
		for j, e := range g.Adj[l.A] {
			if e.To == l.B {
				ws.SetSymmetric(g, l.A, l.B, fold(ws[l.A][j], i))
				break
			}
		}
	}
	for _, row := range ws {
		for j, value := range row {
			row[j] = weight(value)
		}
	}
	return ws
}

// memoryWeights fills the given constraint with the paper's memory model:
// routers cost 10 + x² (x = AS router count), hosts 10.
func memoryWeights(nw *netgraph.Network, g *partition.Graph, con int) {
	asr := nw.ASRouterCount()
	for v := 0; v < nw.NumNodes(); v++ {
		g.VWgt[v][con] = nw.MemoryWeight(v, asr)
	}
}

// mappingTrials is the number of independently seeded partitioner runs each
// approach performs, keeping the candidate with the best balance on its own
// weights (then lowest cut). This mirrors METIS's internal multi-restart
// behavior; crucially, every approach scores candidates only with the
// information it legitimately has — TOP with bandwidth weights, PLACE with
// predicted load, PROFILE with measured load.
const mappingTrials = 5

// largeGraphNodes is the node count beyond which the mapping pipeline
// switches to its lean effort profile (fewer partitioner restarts and
// refinement passes, a single mapping trial): at 10⁵ nodes the default
// budget multiplies a 3.3 s lean TOP call by ~48× (2-vCPU Xeon, GOMAXPROCS
// 1; the lean call took 13 s before the refiner kept its connectivity
// current across moves, and the factor was ~80× before rebalance stopped
// replaying cycles).
const largeGraphNodes = 20000

// bestOfTrials is the partitioning of one mapping call: mappingTrials
// independently seeded runs (one on very large graphs) of g under objs — one
// objective partitions under its weights directly; several go through the
// §2.3 combination with priorities coef — keeping the candidate with the
// smallest max-norm balance violation on g's constraints, ties broken toward
// the lower cut under the last objective.
//
// The runs are a two-phase task list over the worker pool. Phase 1 is every
// (trial, objective) normalizer partition, phase 2 every trial's final
// partition; nothing reads another task's output inside a phase, results land
// in per-index slots, and the pick runs afterwards in trial order, so the
// answer is the serial loop's whatever the scheduling, and one worker is that
// loop. Under one objective g is weighed once, in place (every caller builds
// g for the call), and every trial reads it; under several, each task weighs
// its worker's own copy of g and g's edge weights are left alone.
func bestOfTrials(g *partition.Graph, objs []partition.EdgeWeightSet, coef []float64, k int, opts partition.Options) ([]int, error) {
	trials, nobj := mappingTrials, len(objs)
	if g.NumVertices() >= largeGraphNodes {
		trials = 1
	}
	var cuts []int64
	if nobj > 1 {
		var err error
		if cuts, err = objectiveCuts(g, objs, k, opts, trials); err != nil {
			return nil, err
		}
	} else {
		g.SetWeights(objs[0])
	}
	parts := make([][]int, trials)
	err := forEachTask(trials, func(w *worker, trial int) error {
		gt := g
		if nobj > 1 {
			gt = w.graph(g)
			if err := partition.CombineObjectives(gt, objs, coef, cuts[trial*nobj:(trial+1)*nobj]); err != nil {
				return err
			}
		}
		part, err := w.pt.Partition(gt, k, trialOpts(opts, trial))
		parts[trial] = part
		return err
	})
	if err != nil {
		return nil, err
	}
	return pickBest(g, objs[nobj-1], k, parts), nil
}

// pickBest returns the first of parts, in order, with the smallest max-norm
// balance violation on g's constraints, ties broken toward the lower cut
// under cutWeights.
func pickBest(g *partition.Graph, cutWeights partition.EdgeWeightSet, k int, parts [][]int) []int {
	var best []int
	var bestBal float64
	var bestCut int64
	for _, part := range parts {
		bal := 0.0
		for _, b := range partition.Balance(g, part, k) {
			if b > bal {
				bal = b
			}
		}
		cut := partition.CutWeightOf(g, cutWeights, part)
		if best == nil || bal < bestBal-1e-9 || (math.Abs(bal-bestBal) <= 1e-9 && cut < bestCut) {
			best, bestBal, bestCut = part, bal, cut
		}
	}
	return best
}

// trialOpts returns the partitioner options of a trial: opts on the trial's
// own seed.
func trialOpts(opts partition.Options, trial int) partition.Options {
	opts.Seed += int64(trial) * 7919
	return opts
}

// objectiveCuts returns, for each of trials seeds and each objective, the cut
// a partition of g under that objective alone achieves — CombineObjectives'
// normalizers, trial-major. g's own edge weights are not touched.
func objectiveCuts(g *partition.Graph, objs []partition.EdgeWeightSet, k int, opts partition.Options, trials int) ([]int64, error) {
	nobj := len(objs)
	cuts := make([]int64, trials*nobj)
	err := forEachTask(len(cuts), func(w *worker, i int) error {
		gi := w.graph(g)
		gi.SetWeights(objs[i%nobj])
		part, err := w.pt.Partition(gi, k, trialOpts(opts, i/nobj))
		if err != nil {
			return fmt.Errorf("objective %d: %w", i%nobj, err)
		}
		cuts[i] = partition.EdgeCut(gi, part)
		return nil
	})
	return cuts, err
}

// workers holds mapping calls' per-goroutine state between calls, so that a
// warm process partitions without building workspaces. A call takes one
// worker per goroutine it fans out over and gives them back when its tasks
// have returned: from Get to Put a worker belongs to that call alone, and
// only the one goroutine the call hands it to touches it.
var workers = sync.Pool{New: func() any { return new(worker) }}

// worker is what one goroutine of a mapping call partitions with: a
// Partitioner, and storage for a copy of the call's graph whose edge weights
// each task overwrites.
type worker struct {
	pt    partition.Partitioner
	g     partition.Graph
	adj   [][]partition.Edge
	edges []partition.Edge
}

// graph returns w's copy of g: g's vertex weights, read in place, over an
// adjacency in w's own storage, which is kept from one call to the next and
// grows when a graph needs more. Only the copy's edge weights are the
// caller's to change.
func (w *worker) graph(g *partition.Graph) *partition.Graph {
	n, m := len(g.Adj), 0
	for _, a := range g.Adj {
		m += len(a)
	}
	if cap(w.adj) < n {
		w.adj = make([][]partition.Edge, n)
	}
	if cap(w.edges) < m {
		w.edges = make([]partition.Edge, m)
	}
	adj, edges := w.adj[:n], w.edges[:m]
	for v, a := range g.Adj {
		adj[v] = edges[:len(a):len(a)]
		edges = edges[copy(edges, a):]
	}
	w.g = partition.Graph{Ncon: g.Ncon, VWgt: g.VWgt, Adj: adj}
	return &w.g
}

// forEachTask calls fn(w, i) for every i in [0, n) on at most GOMAXPROCS
// goroutines, w being the calling goroutine's own worker, and returns the
// error of the lowest failing index — the one a serial loop would have
// stopped at.
func forEachTask(n int, fn func(w *worker, i int) error) error {
	ws := make([]*worker, parallel.Workers(0, n))
	for i := range ws {
		ws[i] = workers.Get().(*worker)
	}
	errs := make([]error, n)
	parallel.ForEachWorker(n, len(ws), func(wk, i int) {
		errs[i] = fn(ws[wk], i)
	})
	for _, w := range ws {
		w.g = partition.Graph{} // do not keep the call's graph alive
		workers.Put(w)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TopMap implements the topology-based approach (§3.1).
func TopMap(in Input) ([]int, error) {
	if err := in.defaults(); err != nil {
		return nil, err
	}
	g, objs := topGraph(in.Network)
	part, err := bestOfTrials(g, objs, nil, in.K, in.PartOpts)
	if err != nil {
		return nil, fmt.Errorf("mapping: TOP: %w", err)
	}
	return part, nil
}

// topGraph builds the TOP partitioning instance: the graph with bandwidth and
// memory constraints, and the latency objective.
func topGraph(nw *netgraph.Network) (*partition.Graph, []partition.EdgeWeightSet) {
	g := baseGraph(nw, 2)
	// Constraint 0: total bandwidth in/out of the node, in Mb/s.
	for v := 0; v < nw.NumNodes(); v++ {
		w := int64(math.Round(nw.TotalBandwidth(v) / 1e6))
		if w < 1 {
			w = 1
		}
		g.VWgt[v][0] = w
	}
	memoryWeights(nw, g, 1)
	return g, []partition.EdgeWeightSet{latencyWeights(nw, g)}
}

// predictedLinkLoad accumulates PLACE's traffic estimate per link, in
// packets per second: the background pair rates plus the foreground
// injection-point model, both routed over in.Routes — the route oracle the
// emulator forwards with, standing in for the paper's in-emulator ICMP
// traceroute (§3.2), which under static routing reports the same paths.
func predictedLinkLoad(in *Input) map[int]float64 {
	nw := in.Network
	load := make(map[int]float64)
	addPair := func(src, dst int, bytesPerSec float64) {
		for _, lid := range nw.RouteLinks(in.Routes, src, dst) {
			load[lid] += bytesPerSec / in.MTUBytes
		}
	}
	for _, p := range in.Background {
		addPair(p.Src, p.Dst, p.BytesPerSecond)
	}
	// Foreground: "the application fully utilizes the network link at each
	// injection point and every node talks to all other nodes with evenly
	// distributed bandwidth" (§3.2). Every injection point is modeled at the
	// same NIC-rate utilization (InjectionCapBps): the application pushes
	// its communication volume regardless of how slow the access link is —
	// a slower link only stretches the transfer, not the packet count the
	// engine must process.
	n := len(in.AppHosts)
	if n > 1 {
		perPeer := in.InjectionCapBps / 8 / float64(n-1)
		for _, src := range in.AppHosts {
			for _, dst := range in.AppHosts {
				if dst != src {
					addPair(src, dst, perPeer)
				}
			}
		}
	}
	return load
}

// trafficEdgeWeights converts per-link loads (packets/s or packets) into the
// bandwidth objective's edge weights: an edge weighs the rounded sum of its
// links' loads, added in nw.Links order (the running float64 sum rides in the
// weight set as its bits).
func trafficEdgeWeights(nw *netgraph.Network, g *partition.Graph, load map[int]float64) partition.EdgeWeightSet {
	sum := func(bits int64, i int) int64 {
		return int64(math.Float64bits(math.Float64frombits(uint64(bits)) + load[nw.Links[i].ID]))
	}
	round := func(bits int64) int64 { return int64(math.Round(math.Float64frombits(uint64(bits)))) }
	return linkWeights(nw, g, sum, round)
}

// nodeThroughLoad estimates the compute weight of each node from per-link
// loads: the paper's "maximal bipartition flow of all traffic flowing
// through a network node" is approximated by half the total traffic on the
// node's incident links (exact for pure transit nodes).
func nodeThroughLoad(nw *netgraph.Network, load map[int]float64) []float64 {
	out := make([]float64, nw.NumNodes())
	for _, l := range nw.Links {
		out[l.A] += load[l.ID] / 2
		out[l.B] += load[l.ID] / 2
	}
	return out
}

// PlaceMap implements the application-placement approach (§3.2).
func PlaceMap(in Input) ([]int, error) {
	if err := in.defaults(); err != nil {
		return nil, err
	}
	g, objs := placeGraph(&in)
	part, err := bestOfTrials(g, objs, in.priorities(), in.K, in.PartOpts)
	if err != nil {
		return nil, fmt.Errorf("mapping: PLACE: %w", err)
	}
	return part, nil
}

// placeGraph builds the PLACE partitioning instance: the graph with
// predicted through-load and memory constraints, and the {latency, traffic}
// edge-weight objectives.
func placeGraph(in *Input) (*partition.Graph, []partition.EdgeWeightSet) {
	nw := in.Network
	load := predictedLinkLoad(in)

	g := baseGraph(nw, 2)
	through := nodeThroughLoad(nw, load)
	for v := 0; v < nw.NumNodes(); v++ {
		w := int64(math.Round(through[v]))
		if w < 1 {
			w = 1
		}
		g.VWgt[v][0] = w
	}
	memoryWeights(nw, g, 1)
	return g, []partition.EdgeWeightSet{latencyWeights(nw, g), trafficEdgeWeights(nw, g, load)}
}

// priorities returns the §2.3 coefficients of the {latency, traffic}
// objectives.
func (in *Input) priorities() []float64 {
	return []float64{in.LatencyPriority, 1 - in.LatencyPriority}
}

// profileGraph builds the PROFILE partitioning instance: the graph with
// measured load (or clustered per-segment) constraints plus memory, and the
// {latency, traffic} edge-weight objectives.
func profileGraph(in *Input) (*partition.Graph, []partition.EdgeWeightSet, error) {
	if in.Summary == nil {
		return nil, nil, fmt.Errorf("%w: PROFILE requires a NetFlow summary", ErrBadInput)
	}
	nw := in.Network
	if len(in.Summary.NodePackets) != nw.NumNodes() {
		return nil, nil, fmt.Errorf("%w: summary covers %d nodes, network has %d",
			ErrBadInput, len(in.Summary.NodePackets), nw.NumNodes())
	}

	// Measured per-link load (packets over the profiled run).
	load := make(map[int]float64, len(in.Summary.LinkPackets))
	for l, p := range in.Summary.LinkPackets {
		load[l] = float64(p)
	}

	// Balance constraints: either the measured total load per node, or one
	// constraint per clustered emulation segment — plus memory, always last.
	var segments [][2]int
	if in.Cluster && in.Summary.NodeSeries != nil {
		segments = SegmentTimeline(in.Summary.NodeSeries, in.MaxSegments)
	}
	ncon := 1 + 1 // total load + memory
	if len(segments) > 1 {
		ncon = len(segments) + 1
	}
	g := baseGraph(nw, ncon)

	if len(segments) > 1 {
		series := in.Summary.NodeSeries
		for s, seg := range segments {
			for b := seg[0]; b <= seg[1]; b++ {
				for v := 0; v < nw.NumNodes(); v++ {
					g.VWgt[v][s] += int64(math.Round(series.Loads[b][v]))
				}
			}
		}
		// Guarantee a connected positive weight so empty segments don't
		// destabilize balance bookkeeping.
		for v := 0; v < nw.NumNodes(); v++ {
			for s := 0; s < len(segments); s++ {
				if g.VWgt[v][s] < 0 {
					g.VWgt[v][s] = 0
				}
			}
		}
	} else {
		for v := 0; v < nw.NumNodes(); v++ {
			w := in.Summary.NodePackets[v]
			if w < 1 {
				w = 1
			}
			g.VWgt[v][0] = w
		}
	}
	memoryWeights(nw, g, ncon-1)

	return g, []partition.EdgeWeightSet{latencyWeights(nw, g), trafficEdgeWeights(nw, g, load)}, nil
}

// ProfileMap implements the profile-based approach (§3.3).
func ProfileMap(in Input) ([]int, error) {
	if err := in.defaults(); err != nil {
		return nil, err
	}
	g, objs, err := profileGraph(&in)
	if err != nil {
		return nil, err
	}
	part, err := bestOfTrials(g, objs, in.priorities(), in.K, in.PartOpts)
	if err != nil {
		return nil, fmt.Errorf("mapping: PROFILE: %w", err)
	}
	return part, nil
}

// PredictMemory returns the per-engine memory requirement of an assignment
// under the paper's model — the quantity its §5 future-work loop would
// monitor before deciding to repartition with a heavier memory weight.
func PredictMemory(nw *netgraph.Network, assignment []int, k int) []int64 {
	asr := nw.ASRouterCount()
	out := make([]int64, k)
	for v, e := range assignment {
		out[e] += nw.MemoryWeight(v, asr)
	}
	return out
}
