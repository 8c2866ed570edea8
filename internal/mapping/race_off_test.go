//go:build !race

package mapping

const raceEnabled = false
