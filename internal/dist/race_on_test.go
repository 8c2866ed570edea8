//go:build race

package dist_test

// raceEnabled reports that the race detector is on. Under it sync.Pool drops
// a random share of what is put back, so allocation-count gates over pooled
// paths measure the detector, not the code; they skip.
const raceEnabled = true
