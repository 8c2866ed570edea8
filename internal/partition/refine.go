package partition

import (
	"math/rand"
	"slices"
)

// partWeights returns the per-part, per-constraint weight sums of the
// assignment.
func partWeights(g *Graph, part []int, k int) [][]int64 {
	w := make([][]int64, k)
	for p := range w {
		w[p] = make([]int64, g.Ncon)
	}
	for v, p := range part {
		for c, x := range g.VWgt[v] {
			w[p][c] += x
		}
	}
	return w
}

// partSizes returns the vertex count of each part.
func partSizes(part []int, k int) []int {
	s := make([]int, k)
	for _, p := range part {
		s[p]++
	}
	return s
}

// uniformFractions returns frac unchanged when it already holds k positive
// entries summing to ~1, or the uniform 1/k vector otherwise. Target
// fractions are how heterogeneous engine capacities reach the partitioner
// (METIS's tpwgts): part p may hold frac[p] of every constraint's total.
func uniformFractions(k int, frac []float64) []float64 {
	if len(frac) == k {
		ok := true
		var sum float64
		for _, f := range frac {
			if f <= 0 {
				ok = false
				break
			}
			sum += f
		}
		if ok && sum > 0.99 && sum < 1.01 {
			return frac
		}
	}
	out := make([]float64, k)
	for p := range out {
		out[p] = 1 / float64(k)
	}
	return out
}

// workspace is the scratch memory of a Partitioner (and of one Improve
// call): what the greedyGrow, refine and rebalance calls of a
// partition share (about 130 of them on a paper topology) so that their
// loops do not allocate, and what coarsening and projection used to make per
// level. reset sizes it for a call; a workspace that has served other graphs,
// k or constraint counts behaves like a new one. Per-vertex buffers are sized
// for the call's finest graph; coarser levels use a prefix.
type workspace struct {
	k    int
	frac []float64 // target fraction per part (see uniformFractions)

	// The assignment being worked on, filled by load and kept current by
	// move.
	w     [][]int64   // w[p][c]: weight of part p on constraint c
	sizes []int       // vertices per part
	total []int64     // weight of the whole graph per constraint
	ceil  [][]float64 // ceil[p][c]: the most part p may weigh on c
	wFlat []int64     // the rows of w
	cFlat []float64   // the rows of ceil
	// Its connectivity: entry v·k+p is vertex v's edge weight and edge count
	// into part p. The count tells "no edge into p" from "edges of total
	// weight 0 into p", which refine treats differently.
	connW []int64
	connN []int32
	// Its member sets: a list per part threaded through the vertices, in no
	// particular order (every scan of one breaks ties by vertex).
	head       []int // first member of each part, -1 when empty
	next, prev []int // a vertex's neighbors in its part's list, -1 at the ends

	perm     []int     // refine's and heavyEdgeMatch's visit order
	round    []int     // rebalance: the assignment a round started from
	forced   []uint8   // rebalance: forced moves per vertex in the current phase
	lim      []float64 // pushPhase's fit limits of one move, [p·ncon+c]
	cycle    cycleLog
	frontier frontier // greedyGrow
	parts    [2][]int // initialPartition's candidates, then projection's source and target

	// Coarsening: the matching, coarsenFast's scratch, and the hierarchy —
	// every level's graph and fineToCoarse carved from one slab per array.
	match   []int
	members [][2]int // coarse vertex -> up to two fine members
	slot    []int    // coarse neighbor -> index in the row being merged, -1 = absent
	levels  []level
	graphs  []Graph
	f2c     []int
	vwgt    []int64
	vrows   [][]int64
	edges   []Edge
	erows   [][]Edge
}

// grow returns s with length n, on a new array when s's is too small. What a
// kept array holds is stale: every user either overwrites it before reading
// or (the stamps, cycleLog.origin) is built to tell.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// take carves n elements, capped at n, off the end of *slab. A slab too small
// is replaced by one twice the size (pieces already handed out keep the old
// one alive), so a warmed workspace allocates nothing.
func take[T any](slab *[]T, n int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, 2*(cap(*slab)+n))
	}
	at := len(*slab)
	*slab = (*slab)[:at+n]
	return (*slab)[at : at+n : at+n]
}

func newWorkspace(g *Graph, k int, frac []float64) *workspace {
	ws := new(workspace)
	ws.reset(g, k, frac)
	return ws
}

// reset sizes the refinement scratch for a k-way partition of g, the finest
// graph of the call. The connectivity tables are n×k: k is an engine count
// in every caller that refines (3 to 20 on the paper's topologies), so they
// stay a small multiple of the graph — 9.6 MB at 10⁵ vertices and k = 8.
func (ws *workspace) reset(g *Graph, k int, frac []float64) {
	n, ncon := g.NumVertices(), g.Ncon
	ws.k, ws.frac = k, uniformFractions(k, frac)
	ws.w, ws.ceil = grow(ws.w, k), grow(ws.ceil, k)
	ws.wFlat, ws.cFlat = grow(ws.wFlat, k*ncon), grow(ws.cFlat, k*ncon)
	for p := 0; p < k; p++ {
		ws.w[p] = ws.wFlat[p*ncon : (p+1)*ncon]
		ws.ceil[p] = ws.cFlat[p*ncon : (p+1)*ncon]
	}
	ws.sizes, ws.total = grow(ws.sizes, k), grow(ws.total, ncon)
	ws.connW, ws.connN = grow(ws.connW, n*k), grow(ws.connN, n*k)
	ws.head, ws.next, ws.prev = grow(ws.head, k), grow(ws.next, n), grow(ws.prev, n)
	ws.lim = grow(ws.lim, k*ncon)
	ws.perm, ws.forced, ws.round = grow(ws.perm, n), grow(ws.forced, n), grow(ws.round, n)
	ws.frontier.gain, ws.frontier.mark = grow(ws.frontier.gain, n), grow(ws.frontier.mark, n)
	ws.parts[0], ws.parts[1] = grow(ws.parts[0], n), grow(ws.parts[1], n)
	ws.cycle.origin = grow(ws.cycle.origin, n)
	if ws.cycle.seen == nil {
		ws.cycle.seen = make(map[uint64]int)
	}
}

// load points the workspace at an assignment: part weights and sizes, the
// ceiling (1+tol)·total[c]·frac[p] each part may weigh under tolerance tol,
// the connectivity and the member sets, in O(n·k+m). A constraint whose
// total is 0 gets an unbounded ceiling.
func (ws *workspace) load(g *Graph, part []int, tol float64) {
	for p := range ws.w {
		clear(ws.w[p])
		ws.sizes[p] = 0
	}
	for v, p := range part {
		ws.sizes[p]++
		for c, x := range g.VWgt[v] {
			ws.w[p][c] += x
		}
	}
	clear(ws.total)
	for p := range ws.w {
		for c, x := range ws.w[p] {
			ws.total[c] += x
		}
	}
	for p := range ws.ceil {
		for c, t := range ws.total {
			if t == 0 {
				ws.ceil[p][c] = 1e308
				continue
			}
			ws.ceil[p][c] = (1 + tol) * float64(t) * ws.frac[p]
		}
	}

	k := ws.k
	connW, connN := ws.connW[:len(part)*k], ws.connN[:len(part)*k]
	clear(connW)
	clear(connN)
	for v, adj := range g.Adj {
		for _, e := range adj {
			connW[v*k+part[e.To]] += e.Wgt
			connN[v*k+part[e.To]]++
		}
	}
	for p := range ws.head {
		ws.head[p] = -1
	}
	for v := len(part) - 1; v >= 0; v-- {
		ws.link(v, part[v])
	}
}

// worstRatio returns the part and constraint whose weight lies furthest past
// its bound, first in (part, constraint) order: the largest ratio above 1 to
// its ceiling for sign +1, the smallest below 1 to its floor
// (1-tol)·total[c]·frac[p] for -1; (-1, -1) when there is none. A bound that
// is not positive never counts, so neither does the floor of a constraint
// whose total is 0.
func (ws *workspace) worstRatio(tol, sign float64) (int, int) {
	bestP, bestC, worst := -1, -1, 1.0
	for p, wp := range ws.w {
		for c, x := range wp {
			bound := ws.ceil[p][c]
			if sign < 0 {
				bound = (1 - tol) * float64(ws.total[c]) * ws.frac[p]
			}
			if r := float64(x) / bound; bound > 0 && sign*r > sign*worst {
				bestP, bestC, worst = p, c, r
			}
		}
	}
	return bestP, bestC
}

// extremePart returns the part other than exclude whose weight on constraint
// c relative to its target fraction is the first largest (sign +1) or
// smallest (-1), or -1 when k == 1.
func (ws *workspace) extremePart(exclude, c int, sign float64) int {
	best := -1
	for p := range ws.w {
		if p != exclude && (best == -1 || sign*float64(ws.w[p][c])/ws.frac[p] > sign*float64(ws.w[best][c])/ws.frac[best]) {
			best = p
		}
	}
	return best
}

// link puts v at the front of part p's member list.
func (ws *workspace) link(v, p int) {
	ws.prev[v], ws.next[v] = -1, ws.head[p]
	if ws.head[p] != -1 {
		ws.prev[ws.head[p]] = v
	}
	ws.head[p] = v
}

// unlink takes v out of part p's member list.
func (ws *workspace) unlink(v, p int) {
	if ws.prev[v] != -1 {
		ws.next[ws.prev[v]] = ws.next[v]
	} else {
		ws.head[p] = ws.next[v]
	}
	if ws.next[v] != -1 {
		ws.prev[ws.next[v]] = ws.prev[v]
	}
}

// move moves v from its current part to dst and keeps every loaded quantity
// current, in O(deg(v)): the only way refine and rebalance change part.
func (ws *workspace) move(g *Graph, part []int, v, dst int) {
	src, k := part[v], ws.k
	for c, x := range g.VWgt[v] {
		ws.w[src][c] -= x
		ws.w[dst][c] += x
	}
	ws.sizes[src]--
	ws.sizes[dst]++
	for _, e := range g.Adj[v] {
		ws.connW[e.To*k+src] -= e.Wgt
		ws.connN[e.To*k+src]--
		ws.connW[e.To*k+dst] += e.Wgt
		ws.connN[e.To*k+dst]++
	}
	ws.unlink(v, src)
	ws.link(v, dst)
	part[v] = dst
}

// maxNorm returns the loaded assignment's worst per-constraint ratio of part
// weight to its target total·frac[p]. 1.0 means perfect balance.
func (ws *workspace) maxNorm() float64 {
	worst := 0.0
	for c, t := range ws.total {
		if t == 0 {
			continue
		}
		for p := range ws.w {
			r := float64(ws.w[p][c]) / (float64(t) * ws.frac[p])
			if r > worst {
				worst = r
			}
		}
	}
	return worst
}

// moveFits reports whether adding a vertex of weights vw to a part of weights
// w keeps every constraint c at or below lim[c].
func moveFits(vw, w []int64, lim []float64) bool {
	for c, x := range vw {
		if float64(w[c]+x) > lim[c] {
			return false
		}
	}
	return true
}

// cheaper reports whether a candidate move of vertex v at cost beats the best
// so far (bestV == -1: none yet): lower cost, then lower vertex. That is the
// pick of a scan of all vertices in ascending order keeping the first strict
// minimum, which is what the unordered member sets must reproduce.
func cheaper(cost float64, v int, bestCost float64, bestV int) bool {
	return bestV == -1 || cost < bestCost || cost == bestCost && v < bestV
}

// visitOrder fills ws.perm with a random permutation of [0,n), drawing from
// rng exactly what rng.Perm(n) draws (the partitioner's random stream, and
// with it every assignment, is the same as when refine called rng.Perm).
func (ws *workspace) visitOrder(n int, rng *rand.Rand) []int {
	m := ws.perm[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// refine performs up to passes rounds of greedy boundary refinement on the
// assignment: each pass visits vertices in random order and moves a vertex to
// the adjacent part with the highest positive cut gain, provided the move
// keeps the destination under the balance ceiling and does not empty the
// source part. Zero-gain moves are taken when they strictly reduce the
// heaviest constraint load of the source part (they improve balance for
// free). Refinement stops early on a pass with no moves.
func (ws *workspace) refine(g *Graph, part []int, tol float64, passes int, rng *rand.Rand) {
	ws.load(g, part, tol)
	k, frac, w, sizes, ceil := ws.k, ws.frac, ws.w, ws.sizes, ws.ceil

	for pass := 0; pass < passes; pass++ {
		moved := 0
		for _, v := range ws.visitOrder(g.NumVertices(), rng) {
			src := part[v]
			if sizes[src] <= 1 {
				continue // never empty a part
			}
			connW, connN := ws.connW[v*k:(v+1)*k], ws.connN[v*k:(v+1)*k]
			if int(connN[src]) == len(g.Adj[v]) {
				continue // interior: no edge into another part
			}
			internal := connW[src]
			bestDst, bestGain := -1, int64(0)
			bestBalance := false
			// Iterate parts in index order so results are deterministic for
			// a fixed seed.
			for dst := 0; dst < k; dst++ {
				if dst == src || connN[dst] == 0 {
					continue
				}
				// Only a move that would be picked is checked against the
				// ceiling.
				switch gain := connW[dst] - internal; {
				case gain > bestGain:
					if moveFits(g.VWgt[v], w[dst], ceil[dst]) {
						bestDst, bestGain, bestBalance = dst, gain, false
					}
				case gain == 0 && bestDst == -1:
					// Zero-gain candidate: only worthwhile if it improves
					// balance (source heavier than destination on some
					// constraint the vertex contributes to).
					if moveFits(g.VWgt[v], w[dst], ceil[dst]) && balanceImproves(g, w, v, src, dst, frac) {
						bestDst, bestBalance = dst, true
					}
				}
			}
			if bestDst != -1 && (bestGain > 0 || bestBalance) {
				ws.move(g, part, v, bestDst)
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// balanceImproves reports whether moving v from src to dst strictly reduces
// the pairwise relative imbalance between the two parts (weights compared
// relative to each part's target fraction).
func balanceImproves(g *Graph, w [][]int64, v, src, dst int, frac []float64) bool {
	for c, x := range g.VWgt[v] {
		if x == 0 {
			continue
		}
		if float64(w[src][c])/frac[src] > float64(w[dst][c]+x)/frac[dst] {
			return true
		}
	}
	return false
}

// rebalance restores balance feasibility after refinement or projection by
// alternating two phases, for at most four rounds. The push phase moves the
// least-cut-damage vertex out of any part exceeding its ceiling into the
// lightest part that can take it. The fill phase pulls the cheapest vertex
// into any part below its floor (1-tol)·avg — a ceiling alone cannot prevent
// one starving part while all the others hug the ceiling. All loops are
// bounded so hopeless instances (e.g. one giant vertex) terminate.
//
// A round is a function of the assignment it starts from (each phase
// restarts its forced-move counts and its cycle log, and every scan breaks
// ties by vertex), so a round that ends where it started would be repeated by
// every round after it: rebalance stops there.
func (ws *workspace) rebalance(g *Graph, part []int, tol float64) {
	ws.load(g, part, tol)
	maxMoves := 4 * g.NumVertices()
	start := ws.round[:len(part)]
	for round := 0; round < 4; round++ {
		copy(start, part)
		ws.pushPhase(g, part, maxMoves)
		ws.fillPhase(g, part, tol, maxMoves)
		if slices.Equal(start, part) {
			return
		}
	}
}

// pushPhase sheds weight from over-ceiling parts; returns moves made.
//
// When the ceilings cannot all be met (the paper's 10 + x² memory weight is
// too lumpy to balance together with the load), the fitting moves do not
// converge: the vertex shed from the part that is over its ceiling on one
// constraint puts its new part over the ceiling on another and is shed again,
// round and round until maxMoves is spent. The next move depends only on the
// assignment and the forced-move counts, and a fitting move leaves the counts
// alone, so once a run of fitting moves returns to an assignment it was in P
// moves ago it repeats those P moves for good: only the budget ends it. The
// phase therefore charges whole periods to the budget without making them
// (they compose to the identity) and plays only the remainder.
func (ws *workspace) pushPhase(g *Graph, part []int, maxMoves int) int {
	k, ncon, w, sizes, ceil, lim := ws.k, g.Ncon, ws.w, ws.sizes, ws.ceil, ws.lim
	// forced caps how often a vertex may be moved by the forced fallback, so
	// that the fallback itself gives up on an instance it cannot repair.
	forced := ws.forced[:len(part)]
	clear(forced)
	ws.cycle.reset()
	moves := 0
	for moves < maxMoves {
		over, overC := ws.worstRatio(0, 1)
		if over == -1 || sizes[over] <= 1 {
			break
		}
		// A move may take its destination up to the ceiling on the violated
		// constraint and 10 % past it on the others: a small margin that lets
		// rebalance make progress on the constraint that matters most.
		for p := range ceil {
			for c, x := range ceil[p] {
				if c != overC {
					x *= 1.10
				}
				lim[p*ncon+c] = x
			}
		}
		// The candidate vertices of the overweight part, best (least cut
		// damage per unit of weight shed) first.
		bestV, bestDst := -1, -1
		var bestCost float64
		for v := ws.head[over]; v != -1; v = ws.next[v] {
			x := g.VWgt[v][overC]
			if x == 0 {
				continue // moving it would not help the violated constraint
			}
			connW := ws.connW[v*k : (v+1)*k]
			for dst := 0; dst < k; dst++ {
				if dst == over {
					continue
				}
				// The cheaper test first: only a move that would be picked
				// is checked against the limits.
				cost := float64(connW[over]-connW[dst]) / float64(x)
				if cheaper(cost, v, bestCost, bestV) && moveFits(g.VWgt[v], w[dst], lim[dst*ncon:(dst+1)*ncon]) {
					bestV, bestDst, bestCost = v, dst, cost
				}
			}
		}
		wasForced := bestV == -1
		if wasForced {
			// No ceiling-respecting move exists. Force progress: shed the
			// least-damaging vertex to the part lightest on the violated
			// constraint, ignoring other ceilings (the next iterations can
			// repair them). Without this fallback, multi-constraint
			// instances wedge far from balance.
			dst := ws.extremePart(over, overC, -1)
			if dst == -1 {
				break
			}
			for v := ws.head[over]; v != -1; v = ws.next[v] {
				x := g.VWgt[v][overC]
				if x == 0 || forced[v] >= 2 {
					continue
				}
				if cost := float64(ws.connW[v*k+over]-ws.connW[v*k+dst]) / float64(x); cheaper(cost, v, bestCost, bestV) {
					bestV, bestDst, bestCost = v, dst, cost
				}
			}
			if bestV == -1 {
				break // truly stuck (single movable vertex, etc.)
			}
			forced[bestV]++
		}
		ws.move(g, part, bestV, bestDst)
		moves++
		if wasForced {
			// The counts changed: no earlier assignment can recur with them.
			ws.cycle.reset()
		} else if period := ws.cycle.record(bestV, over, bestDst); period > 0 {
			moves += (maxMoves - moves) / period * period
		}
	}
	return moves
}

// move is one vertex changing parts.
type move struct{ v, src, dst int }

// cycleLog tells pushPhase when a run of moves has brought the assignment
// back to one it was in earlier in the run. A 64-bit hash of the assignment,
// updated per move, proposes the recurrence; the logged moves confirm it
// exactly, so a hash collision can never skip work that would have changed
// the answer.
type cycleLog struct {
	moves  []move         // the run so far
	hash   uint64         // of the current assignment, relative to the run's start
	seen   map[uint64]int // hash -> len(moves) when the run was last there
	origin []int          // isIdentity's scratch: src+1 of a vertex's first move, 0 = not seen
}

// reset starts a new run at the current assignment.
func (l *cycleLog) reset() {
	l.moves = l.moves[:0]
	l.hash = 0
	clear(l.seen)
	l.seen[0] = 0
}

// record logs a move just made and returns the period P > 0 when the last P
// moves of the run returned every vertex to the part it was in before them,
// or 0 when the assignment is new to the run.
func (l *cycleLog) record(v, src, dst int) int {
	l.moves = append(l.moves, move{v, src, dst})
	l.hash ^= vertexInPartHash(v, src) ^ vertexInPartHash(v, dst)
	at, recurs := l.seen[l.hash]
	// Always the latest position: that makes P the shortest period, and a
	// collision cannot hide the true recurrences that follow it.
	l.seen[l.hash] = len(l.moves)
	if recurs && l.isIdentity(l.moves[at:]) {
		return len(l.moves) - at
	}
	return 0
}

// isIdentity reports whether the moves, applied in order, leave every vertex
// where it started: a vertex's moves chain (each starts where the previous
// one ended), so it is enough that its last move ends where its first began.
func (l *cycleLog) isIdentity(seg []move) bool {
	for _, m := range seg {
		if l.origin[m.v] == 0 {
			l.origin[m.v] = m.src + 1
		}
	}
	same := true
	for i := len(seg) - 1; i >= 0; i-- {
		m := seg[i]
		if o := l.origin[m.v]; o != 0 { // the vertex's last move
			same = same && m.dst+1 == o
			l.origin[m.v] = 0
		}
	}
	return same
}

// vertexInPartHash is the Zobrist key of "vertex v is in part p" (splitmix64
// of the pair); an assignment's hash is the XOR of its vertices' keys.
func vertexInPartHash(v, p int) uint64 {
	x := uint64(v)<<32 ^ uint64(p)
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fillPhase pulls weight into under-floor parts; returns moves made. Every
// vertex moves at most twice, which bounds the phase without a cycle check.
func (ws *workspace) fillPhase(g *Graph, part []int, tol float64, maxMoves int) int {
	k, w, sizes, total := ws.k, ws.w, ws.sizes, ws.total
	forced := ws.forced[:len(part)]
	clear(forced)
	moves := 0
	for move := 0; move < maxMoves; move++ {
		starve, starveC := ws.worstRatio(tol, -1)
		if starve == -1 {
			return moves
		}
		donor := ws.extremePart(starve, starveC, 1)
		if donor == -1 || sizes[donor] <= 1 {
			return moves
		}
		floor := (1 - tol) * float64(total[starveC]) * ws.frac[donor]
		headroom := ws.ceil[starve][starveC] - float64(w[starve][starveC])
		bestV := -1
		var bestCost float64
		for v := ws.head[donor]; v != -1; v = ws.next[v] {
			x := g.VWgt[v][starveC]
			if x == 0 || forced[v] >= 2 {
				continue
			}
			// The donor must not fall below the floor itself, and the
			// incoming vertex must not blow the receiver's own ceiling.
			if float64(w[donor][starveC]-x) < floor || float64(x) > headroom {
				continue
			}
			if cost := float64(ws.connW[v*k+donor]-ws.connW[v*k+starve]) / float64(x); cheaper(cost, v, bestCost, bestV) {
				bestV, bestCost = v, cost
			}
		}
		if bestV == -1 {
			return moves
		}
		forced[bestV]++
		ws.move(g, part, bestV, starve)
		moves++
	}
	return moves
}
