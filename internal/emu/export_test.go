package emu

import "repro/internal/des"

// RaceEnabled is raceEnabled for the tests in package emu_test.
const RaceEnabled = raceEnabled

// RunLogged is Run without options, with the handler wrapped to report every
// executed event's virtual time and LP first: what the tests in package
// emu_test that replay window rules offline work from.
func RunLogged(cfg Config, log func(t float64, lp int)) (*Result, error) {
	res, _, err := runEmulation(cfg, func(e *emulation) des.Handler[payload] {
		return func(lp int, t float64, p payload, s *des.Scheduler[payload]) {
			log(t, lp)
			e.handle(lp, t, p, s)
		}
	})
	return res, err
}

// RunDelivered is Run without options that also returns the bytes each flow's
// destination received (NetState.Delivered), indexed like Workload.Flows.
func RunDelivered(cfg Config) (*Result, []int64, error) {
	res, e, err := runEmulation(cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	return res, e.Delivered, nil
}

// runEmulation is Run without options, with the kernel's handler the one
// handler builds (nil: the emulation's own), returning the emulation too.
func runEmulation(cfg Config, handler func(*emulation) des.Handler[payload]) (*Result, *emulation, error) {
	e, err := prepare(&cfg, new(runOptions))
	if err != nil {
		return nil, nil, err
	}
	desCfg := e.kernelConfig()
	desCfg.OnWindow = e.onWindow
	if handler != nil {
		desCfg.Handler = handler(e)
	}
	kernel, err := des.New(desCfg)
	if err != nil {
		return nil, nil, err
	}
	if err := e.seed(kernel, nil); err != nil {
		return nil, nil, err
	}
	stats, recovery, err := e.runResilient(kernel)
	if err != nil {
		return nil, nil, err
	}
	return e.buildResult(stats, recovery), e, nil
}
