//go:build !race

package dist_test

const raceEnabled = false
