package dist

import (
	"encoding/json"
	"fmt"

	"repro/internal/emu"
)

// canonicalResult is the deterministic projection of an emu.Result used for
// in-process vs distributed equivalence checks. It carries every simulation
// output and excludes only what is legitimately nondeterministic between the
// two execution modes: wall-clock time (Kernel.WallTime) and the distributed
// runtime's pre-merge queue-depth sampling (see DESIGN.md §11).
type canonicalResult struct {
	Windows         int64
	VirtualEnd      float64
	SkippedTime     float64
	Events          []int64
	Charges         []int64
	RemoteSends     []int64
	Lookahead       float64
	EngineLoads     []float64
	Imbalance       float64
	AppTime         float64
	NetTime         float64
	EngineBusy      []float64
	RemoteEvents    int64
	FlowFCTs        []float64
	DroppedPackets  int64
	LinkBytes       []int64
	FinalAssignment []int
	SeriesLoads     [][]float64
	Telemetry       json.RawMessage `json:",omitempty"`
	// Membership records elastic engine-set changes; equivalence between an
	// in-process elastic schedule and a live join/drain run covers the
	// membership log itself, not just the simulation outputs.
	Membership *emu.Membership `json:",omitempty"`
}

// ResultJSON renders a Result into canonical JSON: byte-identical across an
// in-process run and a distributed run of the same scenario. Floats are
// serialized by encoding/json from the exact binary values, so any ULP of
// divergence shows up as a diff.
func ResultJSON(r *emu.Result) ([]byte, error) {
	c := canonicalResult{
		Lookahead:       r.Lookahead,
		EngineLoads:     r.EngineLoads,
		Imbalance:       r.Imbalance,
		AppTime:         r.AppTime,
		NetTime:         r.NetTime,
		EngineBusy:      r.EngineBusy,
		RemoteEvents:    r.RemoteEvents,
		FlowFCTs:        r.FlowFCTs,
		DroppedPackets:  r.DroppedPackets,
		LinkBytes:       r.LinkBytes,
		FinalAssignment: r.FinalAssignment,
		Membership:      r.Membership,
	}
	if r.Kernel != nil {
		c.Windows = r.Kernel.Windows
		c.VirtualEnd = r.Kernel.VirtualEnd
		c.SkippedTime = r.Kernel.SkippedTime
		c.Events = r.Kernel.Events
		c.Charges = r.Kernel.Charges
		c.RemoteSends = r.Kernel.RemoteSends
	}
	if r.EngineSeries != nil {
		c.SeriesLoads = r.EngineSeries.Loads
	}
	if r.Telemetry != nil {
		b, err := json.Marshal(r.Telemetry)
		if err != nil {
			return nil, fmt.Errorf("dist: marshal telemetry: %w", err)
		}
		c.Telemetry = b
	}
	return json.MarshalIndent(&c, "", "  ")
}
