// Package traffic defines the workload representation shared by the
// background traffic generators and the foreground application models: a
// deterministic, timestamped list of flows injected into the virtual network.
//
// The paper's experiments combine an HTTP-style background load (its §4.1.4
// table: request_size, think time, clients per server, server number) with
// live foreground applications; both reduce to Flow lists here because MaSSF
// itself only ever processes packet references, not payload (§3.3).
package traffic

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/netgraph"
)

// Flow is one end-to-end transfer between two hosts.
type Flow struct {
	// ID is unique within a Workload.
	ID int
	// Src and Dst are host node IDs in the virtual network.
	Src, Dst int
	// Start is the injection time in virtual seconds.
	Start float64
	// Bytes is the transfer size.
	Bytes int64
	// Tag labels the flow's origin for NetFlow accounting and debugging,
	// e.g. "http", "scalapack", "gridnpb/HC.BT-0".
	Tag string
}

// Workload is a set of flows plus bookkeeping about where the foreground
// application attaches (its injection points, which the PLACE approach uses).
type Workload struct {
	Flows []Flow
	// AppHosts are the application's injection points (host node IDs); empty
	// for pure background workloads.
	AppHosts []int
	// Duration is the nominal virtual duration of the workload in seconds.
	Duration float64
}

// Merge combines workloads into one, renumbering flow IDs and keeping the
// sorted union of app hosts and the max duration. The flows are copied into
// one exactly sized slice.
func Merge(ws ...Workload) Workload {
	var out Workload
	var flows, hosts int
	for _, w := range ws {
		flows += len(w.Flows)
		hosts += len(w.AppHosts)
	}
	if flows > 0 {
		out.Flows = make([]Flow, 0, flows)
	}
	if hosts > 0 {
		out.AppHosts = make([]int, 0, hosts)
	}
	for _, w := range ws {
		for _, f := range w.Flows {
			f.ID = len(out.Flows)
			out.Flows = append(out.Flows, f)
		}
		out.AppHosts = append(out.AppHosts, w.AppHosts...)
		if w.Duration > out.Duration {
			out.Duration = w.Duration
		}
	}
	slices.Sort(out.AppHosts)
	out.AppHosts = slices.Compact(out.AppHosts)
	return out
}

// Collect returns the flows gen emits, in emission order and numbered by
// position, in one exactly sized slice (nil when gen emits none). gen runs
// twice, first only to count, so it must emit the same flows both times: a
// generator draws from an RNG it seeds inside gen.
func Collect(gen func(emit func(Flow))) []Flow {
	n := 0
	gen(func(Flow) { n++ })
	if n == 0 {
		return nil
	}
	flows := make([]Flow, 0, n)
	gen(func(f Flow) {
		f.ID = len(flows)
		flows = append(flows, f)
	})
	return flows
}

// SortByStart orders flows by start time, then ID, then current order — the
// order the emulator injects them. It sorts a permutation of flow indices and
// then moves each flow once, rather than shifting whole flows in a stable
// sort.
func (w *Workload) SortByStart() {
	flows := w.Flows
	perm := make([]int32, len(flows))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		fa, fb := &flows[a], &flows[b]
		if c := cmp.Compare(fa.Start, fb.Start); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(fa.ID, fb.ID), cmp.Compare(a, b))
	})
	// Position j takes the flow at perm[j]: walk each cycle of the
	// permutation once, marking a filled position by pointing it at itself.
	for i := range perm {
		held, j := flows[i], int32(i)
		for perm[j] != int32(i) {
			from := perm[j]
			flows[j], perm[j] = flows[from], j
			j = from
		}
		flows[j], perm[j] = held, j
	}
}

// StartOrder deals the indices of flows into n groups, each stable-sorted by
// Start, so equal starts keep index order — the order an emulator engine
// starts its flows in. group(i) names flow i's group in [0, n), or -1 to
// leave the flow out. One slab backs every group.
func StartOrder(flows []Flow, n int, group func(i int) int) [][]int32 {
	size, total := make([]int, n), 0
	for i := range flows {
		if g := group(i); g >= 0 {
			size[g]++
			total++
		}
	}
	groups, slab := make([][]int32, n), make([]int32, total)
	for g := range groups {
		groups[g], slab = slab[:0:size[g]], slab[size[g]:]
	}
	for i := range flows {
		if g := group(i); g >= 0 {
			groups[g] = append(groups[g], int32(i))
		}
	}
	for _, idx := range groups {
		slices.SortStableFunc(idx, func(a, b int32) int { return cmp.Compare(flows[a].Start, flows[b].Start) })
	}
	return groups
}

// TotalBytes sums all flow sizes.
func (w *Workload) TotalBytes() int64 {
	var t int64
	for _, f := range w.Flows {
		t += f.Bytes
	}
	return t
}

// Validate checks flows reference host nodes of nw, sizes are positive, and
// start times are finite and not negative (a flow may start or finish after
// the nominal Duration).
func (w *Workload) Validate(nw *netgraph.Network) error {
	for _, f := range w.Flows {
		for _, ep := range []int{f.Src, f.Dst} {
			if ep < 0 || ep >= nw.NumNodes() {
				return fmt.Errorf("traffic: flow %d endpoint %d out of range", f.ID, ep)
			}
			if nw.Nodes[ep].Kind != netgraph.Host {
				return fmt.Errorf("traffic: flow %d endpoint %d is not a host", f.ID, ep)
			}
		}
		if f.Src == f.Dst {
			return fmt.Errorf("traffic: flow %d has identical endpoints", f.ID)
		}
		if f.Bytes <= 0 {
			return fmt.Errorf("traffic: flow %d has non-positive size", f.ID)
		}
		if !(f.Start >= 0) || math.IsInf(f.Start, 1) { // NaN fails the first test
			return fmt.Errorf("traffic: flow %d starts at %g, want a finite time >= 0", f.ID, f.Start)
		}
	}
	return nil
}

// Background is a background traffic condition: it generates the actual
// workload and predicts its own average pair rates — the "gross
// characterization" the PLACE approach consumes (§3.2: "it is reasonable
// that all traffic generators can provide some prediction of their generated
// traffic load"). HTTPSpec, CBRSpec and OnOffSpec implement it.
type Background interface {
	Generate(nw *netgraph.Network) Workload
	Predict(nw *netgraph.Network) []PairRate
}

// PairRate is a predicted average traffic rate between two endpoints, the
// unit of PLACE's traffic estimation.
type PairRate struct {
	Src, Dst int
	// BytesPerSecond is the predicted average rate.
	BytesPerSecond float64
}

// HTTPSpec is the paper's background-traffic description (§4.1.4):
//
//	Traffic name        HTTP
//	request_size        200KByte
//	think time          12
//	client per server   10
//	server number       107
//
// Servers and clients are chosen randomly from the virtual network's hosts.
// Each client repeatedly requests RequestBytes from its server and then
// thinks for an exponentially distributed time with the given mean.
type HTTPSpec struct {
	// RequestBytes is the response size per request (paper: 200 KB).
	RequestBytes int64
	// ThinkTime is the mean think time between a client's requests, seconds
	// (paper: 12).
	ThinkTime float64
	// ClientsPerServer (paper: 10).
	ClientsPerServer int
	// Servers is the number of server hosts (paper: 107). Capped at the
	// host count of the network.
	Servers int
	// Duration is how long clients keep requesting, virtual seconds.
	Duration float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultHTTP returns the paper's background traffic table scaled to a
// network: server count is min(servers, hosts/2) so clients remain distinct
// from servers where possible.
func DefaultHTTP(duration float64, seed int64) HTTPSpec {
	return HTTPSpec{
		RequestBytes:     200 << 10,
		ThinkTime:        12,
		ClientsPerServer: 10,
		Servers:          107,
		Duration:         duration,
		Seed:             seed,
	}
}

// pairing fixes which hosts serve and which clients talk to which server.
// It is deterministic for a spec and network, and shared by Generate (actual
// flows) and Predict (PLACE's estimate), so the prediction models the same
// endpoints the generator drives.
type pairing struct {
	server []int // server host IDs
	client [][]int
}

func (s HTTPSpec) pairs(nw *netgraph.Network) pairing {
	rng := rand.New(rand.NewSource(s.Seed))
	hosts := nw.Hosts()
	nServers := s.Servers
	if nServers > len(hosts)/2 {
		nServers = len(hosts) / 2
	}
	if nServers < 1 {
		nServers = 1
	}
	perm := rng.Perm(len(hosts))
	var p pairing
	p.server = make([]int, nServers)
	for i := 0; i < nServers; i++ {
		p.server[i] = hosts[perm[i]]
	}
	// Clients drawn from the remaining hosts (with reuse when scarce).
	rest := perm[nServers:]
	if len(rest) == 0 {
		rest = perm
	}
	p.client = make([][]int, nServers)
	for i := 0; i < nServers; i++ {
		cs := make([]int, s.ClientsPerServer)
		for j := range cs {
			cs[j] = hosts[rest[rng.Intn(len(rest))]]
			// A client must differ from its server.
			for cs[j] == p.server[i] {
				cs[j] = hosts[rest[rng.Intn(len(rest))]]
			}
		}
		p.client[i] = cs
	}
	return p
}

// Generate materializes the background workload: every client issues
// requests separated by exponential think times until Duration.
func (s HTTPSpec) Generate(nw *netgraph.Network) Workload {
	p := s.pairs(nw)
	w := Workload{Duration: s.Duration, Flows: Collect(func(emit func(Flow)) {
		rng := rand.New(rand.NewSource(s.Seed + 1))
		for si, srv := range p.server {
			for _, cl := range p.client[si] {
				// Stagger session starts uniformly over one think period.
				t := rng.Float64() * s.ThinkTime
				for t < s.Duration {
					emit(Flow{
						Src:   srv, // response dominates: server -> client
						Dst:   cl,
						Start: t,
						Bytes: s.RequestBytes,
						Tag:   "http",
					})
					t += rng.ExpFloat64() * s.ThinkTime
				}
			}
		}
	})}
	w.SortByStart()
	for i := range w.Flows {
		w.Flows[i].ID = i
	}
	return w
}

// Predict returns the generator's own average-rate prediction per
// client-server pair — the "gross characterization" PLACE consumes (§3.2):
// each pair averages RequestBytes every ThinkTime seconds.
func (s HTTPSpec) Predict(nw *netgraph.Network) []PairRate {
	p := s.pairs(nw)
	rate := float64(s.RequestBytes) / s.ThinkTime
	var out []PairRate
	for si, srv := range p.server {
		for _, cl := range p.client[si] {
			out = append(out, PairRate{Src: srv, Dst: cl, BytesPerSecond: rate})
		}
	}
	return out
}
