package des

import "math"

// Grid is the window-pick rule of the conservative loop, shared by every
// driver of it: Kernel.Run walks one over its own queues, a distributed
// coordinator walks one over its workers' votes, and both therefore pick
// bit-identical windows. Windows are aligned to multiples of Lookahead: the
// first window on a grid is the aligned one containing the earliest pending
// event; after that the grid advances window by window, jumping idle
// stretches to the aligned window containing the next event.
//
// The zero value with Lookahead (and optionally EndTime) set is a fresh grid.
type Grid struct {
	// Lookahead is the window width L in virtual seconds.
	Lookahead float64
	// EndTime, if positive, ends the walk once the next event would fire at
	// or beyond it.
	EndTime float64

	// next is the start of the next window; meaningless until aligned.
	next    float64
	aligned bool
}

// Next picks the window [start, end) to execute given the earliest pending
// event time at (pending false: nothing is queued anywhere). skipped is the
// idle virtual time jumped over since the previous window — never counted for
// the first window of a grid. ok is false when the run is over: no pending
// event, or the next one is at or beyond EndTime.
func (g *Grid) Next(at float64, pending bool) (start, end, skipped float64, ok bool) {
	if !pending || (g.EndTime > 0 && at >= g.EndTime) {
		return 0, 0, 0, false
	}
	if !g.aligned {
		g.next = windowFloor(at, g.Lookahead)
		g.aligned = true
	}
	if at >= g.next+g.Lookahead {
		nt := windowFloor(at, g.Lookahead)
		skipped = nt - g.next
		g.next = nt
	}
	start, end = g.next, g.next+g.Lookahead
	g.next = end
	return start, end, skipped, true
}

// Regrid starts a fresh grid, aligned anew to the earliest pending event — a
// membership change without a loop restart. A positive lookahead replaces the
// window width: a changed assignment cuts a different set of links.
func (g *Grid) Regrid(lookahead float64) {
	if lookahead > 0 {
		g.Lookahead = lookahead
	}
	g.aligned = false
}

// windowFloor aligns t down to the window grid of width L.
func windowFloor(t, L float64) float64 {
	if t <= 0 {
		return 0
	}
	return math.Floor(t/L) * L
}
