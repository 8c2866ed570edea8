package main

import (
	"errors"
	"math"
	"testing"
)

// base returns a flag state that validates cleanly.
func base() cliFlags {
	return cliFlags{approach: "all", duration: 120}
}

func TestValidateFlagsAccepts(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*cliFlags)
	}{
		{"defaults", func(f *cliFlags) {}},
		{"netfile+engines", func(f *cliFlags) { f.netfile = "x.net"; f.engines = 4 }},
		{"single-approach", func(f *cliFlags) { f.approach = "TOP" }},
		{"worker", func(f *cliFlags) { *f = cliFlags{worker: "127.0.0.1:9000"} }},
		{"coordinator", func(f *cliFlags) {
			f.approach = "PROFILE"
			f.coordinator = "127.0.0.1:9000"
			f.workers = 2
		}},
		{"coordinator+result-out", func(f *cliFlags) {
			f.approach = "TOP"
			f.coordinator = ":0"
			f.workers = 1
			f.resultOut = "out.json"
		}},
		{"result-out in-process", func(f *cliFlags) { f.resultOut = "out.json" }},
		{"dynamic default policy", func(f *cliFlags) { f.remapInterval = 10 }},
		{"dynamic explicit policy", func(f *cliFlags) { f.remapInterval = 10; f.remapPolicy = "game" }},
		{"dynamic diffusion+metrics", func(f *cliFlags) {
			f.remapInterval = 5
			f.remapPolicy = "diffusion"
			f.metricsAddr = ":1"
		}},
		{"policy profile without interval", func(f *cliFlags) { f.remapPolicy = "profile" }},
		{"dynamic from PROFILE", func(f *cliFlags) { f.remapInterval = 10; f.approach = "PROFILE" }},
		{"dynamic+straggler fault", func(f *cliFlags) { f.remapInterval = 10; f.faults = true }},
		{"dynamic+trace+trace-out", func(f *cliFlags) {
			f.remapInterval = 10
			f.tracePath = "t.jsonl"
			f.traceOut = "t.json"
		}},
		{"dynamic+result-out+matrix-out", func(f *cliFlags) {
			f.remapInterval = 10
			f.resultOut = "o.json"
			f.matrixOut = "m.json"
		}},
		{"coordinator+straggler fault", func(f *cliFlags) {
			f.approach = "TOP"
			f.coordinator = ":1"
			f.workers = 1
			f.faults = true
		}},
	}
	for _, tc := range cases {
		f := base()
		tc.mod(&f)
		if err := validateFlags(f); err != nil {
			t.Errorf("%s: unexpected rejection: %v", tc.name, err)
		}
	}
}

func TestValidateFlagsRejects(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*cliFlags)
		want error
	}{
		{"bad duration", func(f *cliFlags) { f.duration = 0 }, errBadDuration},
		{"NaN duration", func(f *cliFlags) { f.duration = math.NaN() }, errBadDuration},
		{"+Inf duration", func(f *cliFlags) { f.duration = math.Inf(1) }, errBadDuration},
		{"bad approach", func(f *cliFlags) { f.approach = "BOGUS" }, errBadApproach},
		{"netfile without engines", func(f *cliFlags) { f.netfile = "x.net" }, errNetfileNeedsEngines},
		{"engines without netfile", func(f *cliFlags) { f.engines = 4 }, errEnginesNeedNetfile},
		{"record+replay", func(f *cliFlags) { f.record = "a"; f.replay = "b" }, errRecordReplay},
		{"export+trace", func(f *cliFlags) { f.export = "x"; f.tracePath = "t" }, errNoRun},
		{"metrics=pprof", func(f *cliFlags) { f.metricsAddr = ":1"; f.pprofAddr = ":1" }, errAddrClash},

		{"worker+coordinator", func(f *cliFlags) {
			*f = cliFlags{worker: ":1", coordinator: ":2"}
		}, errWorkerExclusive},
		{"worker+fault", func(f *cliFlags) {
			*f = cliFlags{worker: ":1", faults: true}
		}, errWorkerExclusive},
		{"worker+result-out", func(f *cliFlags) {
			*f = cliFlags{worker: ":1", resultOut: "o.json"}
		}, errWorkerExclusive},
		{"worker+netfile", func(f *cliFlags) {
			*f = cliFlags{worker: ":1", netfile: "x.net"}
		}, errWorkerExclusive},
		{"coordinator all-approaches", func(f *cliFlags) {
			f.coordinator = ":1"
			f.workers = 1
		}, errCoordinatorOneRun},
		{"coordinator+crash", func(f *cliFlags) {
			f.approach = "TOP"
			f.coordinator = ":1"
			f.workers = 1
			f.faults, f.crashes = true, true
		}, errCoordinatorFaults},
		{"coordinator without workers", func(f *cliFlags) {
			f.approach = "TOP"
			f.coordinator = ":1"
		}, errCoordinatorWorkers},
		{"workers without coordinator", func(f *cliFlags) { f.workers = 2 }, errWorkersNeedCoord},

		{"negative remap interval", func(f *cliFlags) { f.remapInterval = -1 }, errBadRemapInterval},
		{"NaN remap interval", func(f *cliFlags) { f.remapInterval = math.NaN() }, errBadRemapInterval},
		{"infinite remap interval", func(f *cliFlags) { f.remapInterval = math.Inf(1) }, errBadRemapInterval},
		{"policy without interval", func(f *cliFlags) { f.remapPolicy = "game" }, errRemapPolicyInterval},
		{"bad policy", func(f *cliFlags) { f.remapInterval = 10; f.remapPolicy = "simulated-annealing" }, errBadRemapPolicy},
		{"dynamic+crash", func(f *cliFlags) {
			f.remapInterval = 10
			f.faults, f.crashes = true, true
		}, errRemapModeExclusive},
		{"dynamic+coordinator", func(f *cliFlags) {
			f.remapInterval = 10
			f.approach = "TOP"
			f.coordinator = ":1"
			f.workers = 1
		}, errRemapModeExclusive},
		{"dynamic+elastic", func(f *cliFlags) {
			f.remapInterval = 10
			f.approach = "TOP"
			f.coordinator = ":1"
			f.workers = 1
			f.elastic = true
		}, errRemapModeExclusive},
		{"worker+remap", func(f *cliFlags) {
			*f = cliFlags{worker: ":1", remapInterval: 10}
		}, errWorkerExclusive},
		{"worker+remap-policy", func(f *cliFlags) {
			*f = cliFlags{worker: ":1", remapPolicy: "game"}
		}, errWorkerExclusive},
	}
	for _, tc := range cases {
		f := base()
		tc.mod(&f)
		err := validateFlags(f)
		if err == nil {
			t.Errorf("%s: accepted, want %v", tc.name, tc.want)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}
