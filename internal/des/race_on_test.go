//go:build race

package des

// raceEnabled reports that the race detector is on. Its runtime allocates on
// its own schedule, so a gate on an exact allocation count measures the
// detector, not the code, and skips: without the skip and with -race
// -count=10, TestBarrierSteadyStateAllocs read 193 to 195 allocations per run
// whatever the run's length and failed 5 of 10 (0 of 30 without -race).
const raceEnabled = true
