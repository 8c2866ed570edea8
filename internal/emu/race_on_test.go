//go:build race

package emu

// raceEnabled reports that the race detector is on. Its runtime allocates on
// its own schedule, so a gate on an exact allocation count measures the
// detector, not the code, and skips: with the skips removed and -race
// -count=40, the two disabled-path gates read 149 against 148 allocations per
// run in 8 of 80 runs (and never without -race).
const raceEnabled = true
