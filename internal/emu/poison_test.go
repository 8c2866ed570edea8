package emu

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/topogen"
)

// A payload kind no handler knows — what a corrupted or version-skewed wire
// event decodes into if the kind check is ever bypassed.
const alienKind = 0xee

// TestUnknownPayloadPoisonsRun drives an unknown event kind through the
// main emulation handler: the run must fail with ErrBadConfig at the next
// barrier instead of panicking the process (a distributed worker must survive
// a malformed peer).
func TestUnknownPayloadPoisonsRun(t *testing.T) {
	cfg := Config{
		Network:    lineNet(),
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   oneFlow(1<<20, 0.5),
	}
	var o runOptions
	e, err := prepare(&cfg, &o)
	if err != nil {
		t.Fatal(err)
	}
	desCfg := e.kernelConfig()
	desCfg.OnWindow = e.onWindow
	kernel, err := des.New(desCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.seed(kernel, nil); err != nil {
		t.Fatal(err)
	}
	if err := kernel.Seed(1, 1, func(int) (float64, payload) { return 0.25, payload{kind: alienKind} }); err != nil {
		t.Fatal(err)
	}
	_, err = kernel.Run()
	if err == nil {
		t.Fatal("unknown payload must poison the run")
	}
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("poisoned run must wrap ErrBadConfig, got %v", err)
	}
}

// hostileWire are wire events no legitimate sender can produce for
// lineNet()/oneFlow(1<<20) under the given transport — arrive only ever
// forwards a flow's own full or tail shape, startFlowTCP only emits the
// (Offset, Window) pairs of roundShape that start inside the flow, and a Blast
// run emits no round at all — and that were executed, not refused, before
// decodeWire validated them: negative charges, a transmitter clock running
// backwards, a million injected chunks from one round, up to 32 chunks nobody
// sent from a round that pairs a real offset with another round's window.
var hostileWire = []struct {
	transport TransportMode
	w         WireEvent
}{
	{TCPSlowStart, WireEvent{Kind: WireChunk, Hop: 1, Packets: -5, Bytes: -1000}},
	{TCPSlowStart, WireEvent{Kind: WireChunk, Hop: 1, Packets: 1 << 40, Bytes: 1 << 50}},
	{TCPSlowStart, WireEvent{Kind: WireTCPRound, Offset: -(1 << 36), Window: 1 << 30}},
	{TCPSlowStart, WireEvent{Kind: WireTCPRound, Offset: -(1 << 62), Window: 1 << 30}},
	{TCPSlowStart, WireEvent{Kind: WireTCPRound, Offset: 15 * 64 << 10, Window: tcpMaxWindow}}, // round 4's offset, round 5's window
	{Blast, WireEvent{Kind: WireTCPRound, Offset: 15 * 64 << 10, Window: 16}},                  // a real round, of a run that has none
}

// TestDecodeWireRejectsMalformedEvents: a worker receiving garbage wire
// events must get errors, not panics or silent misdelivery.
func TestDecodeWireRejectsMalformedEvents(t *testing.T) {
	emulations := map[TransportMode]*emulation{}
	for _, transport := range []TransportMode{Blast, TCPSlowStart} {
		cfg := Config{
			Network:    lineNet(),
			Assignment: []int{0, 0, 1, 1},
			NumEngines: 2,
			Workload:   oneFlow(1<<20, 0.5),
			Transport:  transport,
		}
		e, err := prepare(&cfg, &runOptions{})
		if err != nil {
			t.Fatal(err)
		}
		emulations[transport] = e
	}
	refused := func(e *emulation, w WireEvent) {
		t.Helper()
		if _, err := e.decodeWire(w); err == nil {
			t.Errorf("malformed wire event %+v decoded without error", w)
		} else if !errors.Is(err, ErrBadConfig) {
			t.Errorf("wire decode error must wrap ErrBadConfig, got %v", err)
		}
	}
	for _, h := range hostileWire {
		refused(emulations[h.transport], h.w)
	}
	e := emulations[TCPSlowStart]
	for _, w := range []WireEvent{
		{Kind: WireFlowStart, Flow: 99},                           // flow out of range
		{Kind: WireFlowStart, Flow: -1},                           // negative flow
		{Kind: WireChunk, Flow: 0, Hop: 100},                      // hop past the path
		{Kind: 0xee, Flow: 0},                                     // unknown kind
		{Kind: WireChunk, Hop: 1, Packets: 1, Bytes: 1000},        // a tail the flow does not have
		{Kind: WireChunk, Hop: 1, Packets: 44, Bytes: 64<<10 + 1}, // nearly the full shape
		{Kind: WireTCPRound, Offset: 1 << 20, Window: 1},          // past the last byte
		{Kind: WireTCPRound, Offset: 1000, Window: 1},             // off the chunk grid
		{Kind: WireTCPRound, Window: 0},
		{Kind: WireTCPRound, Window: tcpMaxWindow + 1},
	} {
		refused(e, w)
	}
	// What the flow's own sender does produce still decodes.
	for _, w := range []WireEvent{
		{Kind: WireChunk, Hop: 3, Packets: 44, Bytes: 64 << 10},
		{Kind: WireTCPRound, Offset: 15 * 64 << 10, Window: 16},
	} {
		if _, err := e.decodeWire(w); err != nil {
			t.Errorf("legitimate wire event %+v refused: %v", w, err)
		}
	}
	// A route of n links has hops 0 to n, its source to its destination: for
	// every flow of the flow-table workloads, a chunk of the flow's own shape
	// decodes at each of them and is refused one hop before and one past.
	for _, name := range []string{"Campus", "TeraGrid", "Brite"} {
		nw, err := topogen.ByName(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		for wname, w := range tableWorkloads(nw, 7) {
			cfg := Config{Network: nw, Assignment: roundRobin(nw.NumNodes(), 3), NumEngines: 3, Workload: w}
			e, err := prepare(&cfg, &runOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range w.Flows {
				chunk := WireEvent{Kind: WireChunk, Flow: int32(i), Packets: e.fullPackets, Bytes: cfg.ChunkBytes}
				if f.Bytes < cfg.ChunkBytes {
					chunk.Packets, chunk.Bytes = e.sizeOf(int32(i), kindTailChunk)
				}
				links := len(nw.RouteLinks(nw.SharedRouting(), f.Src, f.Dst))
				for hop := -1; hop <= links+1; hop++ {
					chunk.Hop = int32(hop)
					_, err := e.decodeWire(chunk)
					if inRoute := hop >= 0 && hop <= links; inRoute && err != nil {
						t.Fatalf("%s/%s flow %d: hop %d of a %d-link route refused: %v", name, wname, i, hop, links, err)
					} else if !inRoute && (!errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), fmt.Sprintf("of a %d-link route", links))) {
						t.Fatalf("%s/%s flow %d: hop %d of a %d-link route is not refused as past the route: %v", name, wname, i, hop, links, err)
					}
				}
			}
		}
	}
}

// TestInjectRefusesHostileSender: a worker handed a hostile event refuses the
// whole batch before any handler runs — nothing is queued, nothing charged —
// and does so in the time of a comparison, not of the million chunks the
// round asked for (174 ms at a049ea3, unbounded for the larger offset).
func TestInjectRefusesHostileSender(t *testing.T) {
	for _, h := range hostileWire {
		w := h.w
		d, err := NewDistLocal(Config{
			Network: lineNet(), Assignment: []int{0, 0, 1, 1}, NumEngines: 2,
			Workload: oneFlow(1<<20, 0.5), Transport: h.transport,
		}, []int{0, 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.Time = 0.25
		good := WireEvent{Kind: WireChunk, Time: 0.25, Hop: 1, Packets: 44, Bytes: 64 << 10}
		fastest := time.Hour
		for try := 0; try < 5; try++ {
			start := time.Now()
			err = d.Inject([]WireEvent{good, w})
			fastest = min(fastest, time.Since(start))
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Inject(%+v) = %v, want ErrBadConfig", w, err)
			}
		}
		if fastest > time.Millisecond {
			t.Errorf("refusing %+v took %v", w, fastest)
		}
		if next, ok := d.Vote(); !ok || next != 0.5 {
			t.Errorf("after refusing %+v the next event is at %v (%v), want only the flow start at 0.5", w, next, ok)
		}
		if _, err := d.Step(0, 1e-3); err != nil {
			t.Fatal(err)
		}
		if st, _ := d.Export(false); st.Charges[0] != 0 || st.Charges[1] != 0 || st.Events[0] != 0 || st.Events[1] != 0 {
			t.Errorf("after refusing %+v the worker charged %v over %v events", w, st.Charges, st.Events)
		}
		d.Close()
	}
}
