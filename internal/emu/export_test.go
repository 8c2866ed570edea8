package emu

import "repro/internal/des"

// RaceEnabled is raceEnabled for the tests in package emu_test.
const RaceEnabled = raceEnabled

// RunLogged is Run without options, with the handler wrapped to report every
// executed event's virtual time and LP first: what the tests in package
// emu_test that replay window rules offline work from. cfg must be
// Sequential, so that log is called from one goroutine.
func RunLogged(cfg Config, log func(t float64, lp int)) (*Result, error) {
	e, err := prepare(&cfg, new(runOptions))
	if err != nil {
		return nil, err
	}
	desCfg := e.kernelConfig()
	desCfg.OnWindow = e.onWindow
	desCfg.Handler = func(lp int, t float64, p payload, s *des.Scheduler[payload]) {
		log(t, lp)
		e.handle(lp, t, p, s)
	}
	kernel, err := des.New(desCfg)
	if err != nil {
		return nil, err
	}
	if err := e.seed(kernel, nil); err != nil {
		return nil, err
	}
	stats, recovery, err := e.runResilient(kernel)
	if err != nil {
		return nil, err
	}
	return e.buildResult(stats, recovery), nil
}
