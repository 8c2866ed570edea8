//go:build race

package mapping

// raceEnabled reports that the race detector is on: its runtime allocates on
// its own schedule, so the exact allocation gate skips.
const raceEnabled = true
