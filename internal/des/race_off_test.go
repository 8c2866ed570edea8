//go:build !race

package des

const raceEnabled = false
