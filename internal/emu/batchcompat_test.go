package emu

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// The byte-identical acceptance matrix for the kernel's one window loop.
//
// kernelOutcome captures everything deterministic a run produces with every
// sink attached at once: the full JSONL observability trace (per-window,
// per-engine counters, RunMeta per grid, recovery events — any event
// reordering shows up here), the canonical result fields dist.ResultJSON
// serializes (wall-clock times excluded), and what the other sinks of the one
// window commit recorded — the tracing timeline's canonical projection, the
// final telemetry snapshot, RunStats' window count. Every dispatch the kernel
// can choose must produce the same outcome, and that outcome must hash to the
// pins below, which were recorded from the global-sort reference barrier
// running sequentially, with crash recovery and resizes still restarting the
// kernel — before the window loop was collapsed. The two crash pins were
// re-recorded when a crash stopped rolling back: the windows between the
// cadence barrier and the detection barrier now run once, under the old
// assignment; flows, drops, link bytes and the Recovery charge are unchanged,
// the time model and per-engine loads are not. The fields pins of all but
// the elastic scenario were re-recorded when the time model began pricing
// per-bucket counts: AppTime, NetTime and EngineBusy moved in their last bits
// and nothing else did. internal/dist's TestDistributedMatchesInProcess
// extends the chain to the loopback distributed runtime.
type kernelOutcome struct {
	trace       string
	windows     int64
	virtualEnd  float64
	skippedTime float64
	events      []int64
	charges     []int64
	remoteSends []int64

	engineLoads     []float64
	imbalance       float64
	appTime         float64
	netTime         float64
	engineBusy      []float64
	remoteEvents    int64
	flowFCTs        []float64
	droppedPackets  int64
	linkBytes       []int64
	finalAssignment []int
	recovery        *Recovery
	membership      *Membership

	// Outside the pins, which predate these sinks riding along.
	timeline     string
	telemetry    string
	statsWindows int64
}

// runOutcome executes cfg with every sink attached and extracts the
// deterministic outcome.
func runOutcome(t *testing.T, cfg Config) kernelOutcome {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf)
	tl := obs.NewTimeline()
	res, err := Run(cfg, WithRecorder(tr), WithTelemetry(telemetry.New()), WithTrace(tl))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(res.Telemetry)
	if err != nil || res.Telemetry == nil || res.Obs == nil {
		t.Fatalf("run lost a sink: telemetry %v (%v), stats %v", res.Telemetry, err, res.Obs)
	}
	// Every sink saw every executed window.
	if n := int64(strings.Count(buf.String(), `{"type":"window"`)); n != res.Obs.Windows || n != tl.Windows() {
		t.Fatalf("sinks disagree on the windows committed: JSONL %d, stats %d, timeline %d", n, res.Obs.Windows, tl.Windows())
	}
	return kernelOutcome{
		timeline:     string(tl.CanonicalJSON()),
		telemetry:    string(snap),
		statsWindows: res.Obs.Windows,

		trace:       buf.String(),
		windows:     res.Kernel.Windows,
		virtualEnd:  res.Kernel.VirtualEnd,
		skippedTime: res.Kernel.SkippedTime,
		events:      res.Kernel.Events,
		charges:     res.Kernel.Charges,
		remoteSends: res.Kernel.RemoteSends,

		engineLoads:     res.EngineLoads,
		imbalance:       res.Imbalance,
		appTime:         res.AppTime,
		netTime:         res.NetTime,
		engineBusy:      res.EngineBusy,
		remoteEvents:    res.RemoteEvents,
		flowFCTs:        res.FlowFCTs,
		droppedPackets:  res.DroppedPackets,
		linkBytes:       res.LinkBytes,
		finalAssignment: res.FinalAssignment,
		recovery:        res.Recovery,
		membership:      res.Membership,
	}
}

// pin is the SHA-256 of an outcome's trace and of its result fields, the
// latter rendered with %v (shortest round-trip float formatting, so equal
// hashes mean bit-equal values).
func (o kernelOutcome) pin() [2]string {
	fields := fmt.Sprintf("%d %v %v %v %v %v | %v %v %v %v %v %d %v %d %v %v",
		o.windows, o.virtualEnd, o.skippedTime, o.events, o.charges, o.remoteSends,
		o.engineLoads, o.imbalance, o.appTime, o.netTime, o.engineBusy,
		o.remoteEvents, o.flowFCTs, o.droppedPackets, o.linkBytes, o.finalAssignment)
	if o.recovery != nil {
		fields += fmt.Sprintf(" | recovery %+v", *o.recovery)
	}
	if o.membership != nil {
		fields += fmt.Sprintf(" | membership %+v", *o.membership)
	}
	return [2]string{
		fmt.Sprintf("%x", sha256.Sum256([]byte(o.trace))),
		fmt.Sprintf("%x", sha256.Sum256([]byte(fields))),
	}
}

// lifecycle is the trace's run and event lines in order, by kind ("run+" a
// resumed grid): where each RunMeta sits among the recovery events.
func (o kernelOutcome) lifecycle() string {
	var kinds []string
	for _, line := range strings.Split(o.trace, "\n") {
		switch {
		case strings.HasPrefix(line, `{"type":"run"`) && strings.HasSuffix(line, `"resumed":true}`):
			kinds = append(kinds, "run+")
		case strings.HasPrefix(line, `{"type":"run"`):
			kinds = append(kinds, "run")
		case strings.HasPrefix(line, `{"type":"event","kind":"`):
			kind, _, _ := strings.Cut(strings.TrimPrefix(line, `{"type":"event","kind":"`), `"`)
			kinds = append(kinds, kind)
		}
	}
	return strings.Join(kinds, " ")
}

// pinnedScenario is one configuration of the matrix with the {trace, fields}
// hashes its reference run produced and the order of its run and event lines
// — which the trace hash pins too, unreadably.
type pinnedScenario struct {
	name      string
	cfg       func() Config
	pin       [2]string
	lifecycle string
}

func pinnedScenarios() []pinnedScenario {
	plain := func() Config {
		return Config{
			Network:    lineNet(),
			Assignment: []int{0, 0, 1, 1},
			NumEngines: 2,
			Workload:   spreadFlows(16, 8),
		}
	}
	return []pinnedScenario{
		{"plain", plain, [2]string{
			"9610b41d3fa3863f356ae044d3cde8c81e8a4adb589831caca651189db19848d",
			"8207652748d2b00c43f358b517b2779fe7886b6ed08dc8268b4228820ef73aa5"}, "run"},
		{"faulted", faultedConfig, [2]string{
			"4f7ba595ef617373c49776ae12b5aeaf0d652e41dd3adc5435de282b4a4b8d5c",
			"a3daa2ff39c5e231f66b9cb3558ad53a9dca7878c7ee3b748a846534b81b36b5"},
			"checkpoint run checkpoint crash rollback migration run+" + strings.Repeat(" checkpoint", 6)},
		{"profile", func() Config {
			cfg := plain()
			cfg.Profile = true
			return cfg
		}, [2]string{
			"9610b41d3fa3863f356ae044d3cde8c81e8a4adb589831caca651189db19848d",
			"8207652748d2b00c43f358b517b2779fe7886b6ed08dc8268b4228820ef73aa5"}, "run"},
		{"tcp-buffered", func() Config {
			cfg := plain()
			cfg.Transport = TCPSlowStart
			cfg.BufferBytes = 32 << 10
			return cfg
		}, [2]string{
			"37836c32d5300fda1df167eb4447cac64c59e6236cc8bedfc3928bd868a5bfb9",
			"2933b35c7a71de68bdc9ddbb4b0d900f6703199f5dbd29453e8c04185e2155e2"}, "run"},
		// TestElasticResizeMatchesStatic's grow resize: a third engine
		// activates at the first barrier at or after t=4.
		{"elastic", func() Config {
			return Config{
				Network:         lineNet(),
				Assignment:      []int{0, 0, 1, 1},
				NumEngines:      3,
				Workload:        spreadFlows(6, 10),
				Elastic:         []Resize{{At: 4, Engines: []int{0, 1, 2}, Assignment: []int{0, 1, 2, 2}}},
				CheckpointEvery: 3,
			}
		}, [2]string{
			"61fb67a690cc5e705e499acd20b8c6b7d222bdef19836bcfe37319b97e5b4926",
			"305125b9d5b2aa02c433f511da0c68ae015131ee25c356f2090a5c1bee07c63b"},
			// The emulator announces each grid: the first after the initial
			// checkpoint, the resumed one right after the resize's migrations.
			"checkpoint run checkpoint resize migration migration run+ checkpoint"},
		// Engine 1 dies at t=2 and its nodes move onto engine 0; the survivors
		// then spread back out over engines 0 and 2 at t=5.
		{"crash-then-resize", func() Config {
			return Config{
				Network:         lineNet(),
				Assignment:      []int{0, 0, 1, 1},
				NumEngines:      3,
				Workload:        spreadFlows(8, 8),
				Faults:          &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 2}}},
				CheckpointEvery: 1,
				OnMembership:    dumpOn(0),
				Elastic:         []Resize{{At: 5, Engines: []int{0, 2}, Assignment: []int{0, 0, 2, 2}}},
			}
		}, [2]string{
			"cc19272601e3be1e7b5946eae7e9df5b7576ed7afb143f4a817afdc51e724182",
			"bec9d05a868c1fb8b155b48d72080620ad73d3859207a0291f6b8e7095f18281"},
			"checkpoint run checkpoint crash rollback migration run+ checkpoint checkpoint checkpoint " +
				"resize migration run+ checkpoint checkpoint checkpoint"},
	}
}

// TestBatchedPathByteIdentical runs plain, faulted (cadence marks + crash
// recovery), PROFILE, TCP, elastic and crash-then-resize scenarios through
// every dispatch the kernel chooses between — Sequential, and the default at
// GOMAXPROCS 1 (one goroutine) and 4 (persistent per-engine workers) — and
// requires trace-for-trace, field-for-field equality with each other and with
// the recorded reference pins. Pooled per-destination batches, the SoA heap,
// the per-destination barrier merge, the worker dispatch and the in-place
// re-grid after a crash or resize must be invisible in every observable
// output.
func TestBatchedPathByteIdentical(t *testing.T) {
	modes := []struct {
		name       string
		sequential bool
		procs      int
	}{
		{"sequential", true, 1},
		{"parallel-gomaxprocs-1", false, 1},
		{"parallel-gomaxprocs-4", false, 4},
	}
	for _, sc := range pinnedScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			var first kernelOutcome
			for i, m := range modes {
				prev := runtime.GOMAXPROCS(m.procs)
				cfg := sc.cfg()
				cfg.Sequential = m.sequential
				got := runOutcome(t, cfg)
				runtime.GOMAXPROCS(prev)
				if got.trace == "" || got.windows == 0 {
					t.Fatalf("%s: run produced no observable output", m.name)
				}
				if lc := got.lifecycle(); lc != sc.lifecycle {
					t.Errorf("%s: run and event lines in the order\n %s\nwant\n %s", m.name, lc, sc.lifecycle)
				}
				if pin := got.pin(); pin != sc.pin {
					t.Errorf("%s: outcome diverged from the recorded reference\n got {%q, %q}\nwant {%q, %q}",
						m.name, pin[0], pin[1], sc.pin[0], sc.pin[1])
				}
				if i == 0 {
					first = got
					continue
				}
				if got.trace != first.trace {
					t.Errorf("%s: JSONL trace diverged from %s", m.name, modes[0].name)
				}
				if !reflect.DeepEqual(got, first) {
					t.Errorf("%s: result fields, timeline or telemetry diverged from %s", m.name, modes[0].name)
				}
			}
		})
	}
}
