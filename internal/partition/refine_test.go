package partition

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"
)

// ---------------------------------------------------------------------------
// Reference implementations: refine and rebalance as they stood at PR 12
// (commit 4d61f48), with a map for the connectivity scratch, fresh
// allocations per call and no cycle skip. Production must leave the identical
// assignment and return the identical move counts.
// ---------------------------------------------------------------------------

func allowedCeilingReference(g *Graph, k int, tol float64, frac []float64) [][]float64 {
	total := g.TotalVWgt()
	ceil := make([][]float64, k)
	for p := range ceil {
		ceil[p] = make([]float64, g.Ncon)
		for c, t := range total {
			if t == 0 {
				ceil[p][c] = 1e308
				continue
			}
			ceil[p][c] = (1 + tol) * float64(t) * frac[p]
		}
	}
	return ceil
}

func connectivityReference(g *Graph, part []int, v int, conn map[int]int64) {
	clear(conn)
	for _, e := range g.Adj[v] {
		conn[part[e.To]] += e.Wgt
	}
}

// moveFitsReference reports whether moving vertex v into part dst keeps every
// constraint of dst at or below its ceiling.
func moveFitsReference(g *Graph, w [][]int64, v, dst int, ceil [][]float64) bool {
	for c, x := range g.VWgt[v] {
		if float64(w[dst][c]+x) > ceil[dst][c] {
			return false
		}
	}
	return true
}

// fitsAfterMoveReference is moveFitsReference with a 10 % margin on the
// constraints other than the violated one.
func fitsAfterMoveReference(g *Graph, w [][]int64, v, dst int, ceil [][]float64, violated int) bool {
	for c, x := range g.VWgt[v] {
		limit := ceil[dst][c]
		if c != violated {
			limit *= 1.10
		}
		if float64(w[dst][c]+x) > limit {
			return false
		}
	}
	return true
}

// applyMoveReference moves v from its current part to dst, updating part and
// weights.
func applyMoveReference(g *Graph, part []int, w [][]int64, sizes []int, v, dst int) {
	src := part[v]
	for c, x := range g.VWgt[v] {
		w[src][c] -= x
		w[dst][c] += x
	}
	sizes[src]--
	sizes[dst]++
	part[v] = dst
}

func refineReference(g *Graph, part []int, k int, tol float64, passes int, frac []float64, rng *rand.Rand) {
	frac = uniformFractions(k, frac)
	w := partWeights(g, part, k)
	sizes := partSizes(part, k)
	ceil := allowedCeilingReference(g, k, tol, frac)
	conn := make(map[int]int64, k)

	for pass := 0; pass < passes; pass++ {
		moved := 0
		for _, v := range rng.Perm(g.NumVertices()) {
			src := part[v]
			if sizes[src] <= 1 {
				continue // never empty a part
			}
			connectivityReference(g, part, v, conn)
			internal := conn[src]
			bestDst, bestGain := -1, int64(0)
			bestBalance := false
			for dst := 0; dst < k; dst++ {
				ext, touches := conn[dst]
				if dst == src || !touches {
					continue
				}
				gain := ext - internal
				if gain < 0 {
					continue
				}
				if !moveFitsReference(g, w, v, dst, ceil) {
					continue
				}
				if gain > bestGain {
					bestDst, bestGain, bestBalance = dst, gain, false
					continue
				}
				if gain == 0 && bestDst == -1 && balanceImproves(g, w, v, src, dst, frac) {
					bestDst, bestBalance = dst, true
				}
			}
			if bestDst != -1 && (bestGain > 0 || bestBalance) {
				applyMoveReference(g, part, w, sizes, v, bestDst)
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// The extremum scans rebalance made before worstRatio and extremePart took
// the direction as a sign: one function per direction.

// mostUnderweightReference returns the part and constraint with the largest relative
// shortfall below the floor (1-tol)·total·frac[p], or (-1, -1) if none.
func mostUnderweightReference(w [][]int64, tol float64, total []int64, frac []float64) (int, int) {
	bestP, bestC := -1, -1
	var worst float64 = 1
	for p := range w {
		for c, x := range w[p] {
			if total[c] == 0 {
				continue
			}
			floor := (1 - tol) * float64(total[c]) * frac[p]
			if floor <= 0 {
				continue
			}
			r := float64(x) / floor
			if r < worst {
				worst, bestP, bestC = r, p, c
			}
		}
	}
	return bestP, bestC
}

// heaviestPartReference returns the part (other than exclude) with the largest weight
// on constraint c relative to its target fraction, or -1 when k == 1.
func heaviestPartReference(w [][]int64, exclude, c int, frac []float64) int {
	best := -1
	for p := range w {
		if p == exclude {
			continue
		}
		if best == -1 || float64(w[p][c])/frac[p] > float64(w[best][c])/frac[best] {
			best = p
		}
	}
	return best
}

// lightestPartReference returns the part (other than exclude) with the smallest
// weight on constraint c relative to its target fraction, or -1 when k == 1.
func lightestPartReference(w [][]int64, exclude, c int, frac []float64) int {
	best := -1
	for p := range w {
		if p == exclude {
			continue
		}
		if best == -1 || float64(w[p][c])/frac[p] < float64(w[best][c])/frac[best] {
			best = p
		}
	}
	return best
}

// mostOverweightReference returns the part and constraint with the largest relative
// ceiling violation, or (-1, -1) if everything is within bounds.
func mostOverweightReference(w [][]int64, ceil [][]float64) (int, int) {
	bestP, bestC := -1, -1
	var worst float64 = 1
	for p := range w {
		for c, x := range w[p] {
			if ceil[p][c] <= 0 {
				continue
			}
			r := float64(x) / ceil[p][c]
			if r > worst {
				worst, bestP, bestC = r, p, c
			}
		}
	}
	return bestP, bestC
}

type rebalanceStateReference struct {
	g     *Graph
	part  []int
	k     int
	tol   float64
	frac  []float64
	w     [][]int64
	sizes []int
	ceil  [][]float64
	conn  map[int]int64
	total []int64
}

func newRebalanceStateReference(g *Graph, part []int, k int, tol float64, frac []float64) *rebalanceStateReference {
	frac = uniformFractions(k, frac)
	return &rebalanceStateReference{
		g:     g,
		part:  part,
		k:     k,
		tol:   tol,
		frac:  frac,
		w:     partWeights(g, part, k),
		sizes: partSizes(part, k),
		ceil:  allowedCeilingReference(g, k, tol, frac),
		conn:  make(map[int]int64, k),
		total: g.TotalVWgt(),
	}
}

func rebalanceReference(g *Graph, part []int, k int, tol float64, frac []float64) {
	st := newRebalanceStateReference(g, part, k, tol, frac)
	maxMoves := 4 * g.NumVertices()
	for round := 0; round < 4; round++ {
		pushed := st.pushPhaseReference(maxMoves)
		filled := st.fillPhaseReference(maxMoves)
		if pushed+filled == 0 {
			return
		}
	}
}

// pushPhaseReference is PR 12's pushPhase loop: it makes every move of a
// cycle, up to maxMoves.
func (st *rebalanceStateReference) pushPhaseReference(maxMoves int) int {
	g, part, k, w, sizes, ceil, conn := st.g, st.part, st.k, st.w, st.sizes, st.ceil, st.conn
	forcedMoves := make(map[int]int)
	moves := 0
	stuck := false
	for move := 0; move < maxMoves && !stuck; move++ {
		over, overC := mostOverweightReference(w, ceil)
		if over == -1 {
			break
		}
		bestV, bestDst := -1, -1
		var bestCost float64
		for v, p := range part {
			if p != over || sizes[over] <= 1 {
				continue
			}
			if g.VWgt[v][overC] == 0 {
				continue // moving it would not help the violated constraint
			}
			connectivityReference(g, part, v, conn)
			internal := conn[over]
			for dst := 0; dst < k; dst++ {
				if dst == over {
					continue
				}
				if !fitsAfterMoveReference(g, w, v, dst, ceil, overC) {
					continue
				}
				cost := float64(internal-conn[dst]) / float64(g.VWgt[v][overC])
				if bestV == -1 || cost < bestCost {
					bestV, bestDst, bestCost = v, dst, cost
				}
			}
		}
		if bestV == -1 {
			dst := lightestPartReference(w, over, overC, st.frac)
			if dst == -1 {
				stuck = true
				break
			}
			for v, p := range part {
				if p != over || sizes[over] <= 1 || g.VWgt[v][overC] == 0 {
					continue
				}
				if forcedMoves[v] >= 2 {
					continue
				}
				connectivityReference(g, part, v, conn)
				cost := float64(conn[over]-conn[dst]) / float64(g.VWgt[v][overC])
				if bestV == -1 || cost < bestCost {
					bestV, bestDst, bestCost = v, dst, cost
				}
			}
			if bestV == -1 {
				stuck = true // truly stuck (single movable vertex, etc.)
				break
			}
			forcedMoves[bestV]++
		}
		if bestV != -1 {
			applyMoveReference(g, part, w, sizes, bestV, bestDst)
			moves++
		}
	}
	return moves
}

func (st *rebalanceStateReference) fillPhaseReference(maxMoves int) int {
	g, part, w, sizes, conn, total := st.g, st.part, st.w, st.sizes, st.conn, st.total
	forcedMoves := make(map[int]int)
	moves := 0
	for move := 0; move < maxMoves; move++ {
		starve, starveC := mostUnderweightReference(w, st.tol, total, st.frac)
		if starve == -1 {
			return moves
		}
		donor := heaviestPartReference(w, starve, starveC, st.frac)
		if donor == -1 || sizes[donor] <= 1 {
			return moves
		}
		floor := (1 - st.tol) * float64(total[starveC]) * st.frac[donor]
		headroom := st.ceil[starve][starveC] - float64(w[starve][starveC])
		bestV := -1
		var bestCost float64
		for v, p := range part {
			if p != donor || g.VWgt[v][starveC] == 0 || forcedMoves[v] >= 2 {
				continue
			}
			if float64(w[donor][starveC]-g.VWgt[v][starveC]) < floor {
				continue
			}
			if float64(g.VWgt[v][starveC]) > headroom {
				continue
			}
			connectivityReference(g, part, v, conn)
			cost := float64(conn[donor]-conn[starve]) / float64(g.VWgt[v][starveC])
			if bestV == -1 || cost < bestCost {
				bestV, bestCost = v, cost
			}
		}
		if bestV == -1 {
			return moves
		}
		forcedMoves[bestV]++
		applyMoveReference(g, part, w, sizes, bestV, starve)
		moves++
	}
	return moves
}

// ---------------------------------------------------------------------------
// Instances
// ---------------------------------------------------------------------------

// randomInstance draws a connected graph of 2k..60 vertices with 1-3
// constraints, edge weights that include 0, and a random assignment with no
// empty part. With infeasible set, constraint 0 follows the paper's memory
// model — a few vertices weigh 10 + x² and the rest 10 — so that one vertex
// alone is heavier than a part's ceiling.
func randomInstance(rng *rand.Rand, k int, infeasible bool) (*Graph, []int) {
	n := 2*k + rng.Intn(61-2*k)
	ncon := 1 + rng.Intn(3)
	g := NewGraph(n, ncon)
	for v := 0; v < n; v++ {
		for c := 0; c < ncon; c++ {
			g.VWgt[v][c] = int64(rng.Intn(20)) // 0 included: a vertex may not load a constraint
		}
		if infeasible {
			g.VWgt[v][0] = 10
		}
		if v > 0 {
			g.AddEdge(v, rng.Intn(v), int64(rng.Intn(4)))
		}
	}
	for e := rng.Intn(2 * n); e > 0; e-- {
		g.AddEdge(rng.Intn(n), rng.Intn(n), int64(rng.Intn(4)))
	}
	if infeasible {
		x := int64(n)
		for i := 1 + rng.Intn(k); i > 0; i-- {
			g.VWgt[rng.Intn(n)][0] = 10 + x*x
		}
	}
	part := make([]int, n)
	for v := range part {
		part[v] = rng.Intn(k)
	}
	for p, v := range rng.Perm(n)[:k] {
		part[v] = p
	}
	return g, part
}

func randomFractions(rng *rand.Rand, k int) []float64 {
	if rng.Intn(2) == 0 {
		return nil
	}
	frac := make([]float64, k)
	var sum float64
	for p := range frac {
		frac[p] = 1 + rng.Float64()*3
		sum += frac[p]
	}
	for p := range frac {
		frac[p] /= sum
	}
	return frac
}

// periodTwoInstance is a two-part, two-constraint instance (both constraints
// total 100, so at 5 % tolerance a ceiling is 52.5 and the 10 % slack on the
// constraint not being repaired allows 57.75) on which pushPhase moves vertex 0
// from part 0 to part 1 and back for as long as it is allowed. With vertex 0,
// part 0 weighs 56 on constraint 0; shedding it is the only move that fits,
// and leaves part 1 weighing 56 on constraint 1, where shedding it back is
// again the only move that fits.
func periodTwoInstance() (*Graph, []int) {
	g := NewGraph(5, 2)
	g.SetVWgt(0, 8, 8)
	g.SetVWgt(1, 24, 22)
	g.SetVWgt(2, 24, 22)
	g.SetVWgt(3, 22, 24)
	g.SetVWgt(4, 22, 24)
	g.AddEdge(1, 2, 5)
	g.AddEdge(3, 4, 5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 3, 1)
	return g, []int{0, 0, 0, 1, 1}
}

// readFixture loads testdata/<name>.graph: brite_top is the instance
// mapping.TopMap partitions on the Brite topology, brite_profile_traffic the
// one mapping.ProfileMap partitions under its traffic objective (see the
// files' headers).
func readFixture(t *testing.T, name string) *Graph {
	t.Helper()
	f, err := os.Open("testdata/" + name + ".graph")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := ReadGraph(f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

// shortestPeriod returns the smallest P > 0 such that the last P logged moves
// compose to the identity (0 if none): the period of the cycle the run ended
// in. Deliberately naive — it replays the moves on a map.
func shortestPeriod(log []move) int {
	before := make(map[int]int) // vertex -> the part it was in before the last p moves
	after := make(map[int]int)  // vertex -> the part it is in now
	for p := 1; p <= len(log); p++ {
		m := log[len(log)-p]
		if _, ok := after[m.v]; !ok {
			after[m.v] = m.dst
		}
		before[m.v] = m.src
		same := true
		for v, src := range before {
			if after[v] != src {
				same = false
				break
			}
		}
		if same {
			return p
		}
	}
	return 0
}

// checkTracked fails unless the workspace's connectivity table, member sets
// and part weights equal a recount from scratch of the assignment: what load
// builds and every move must keep current.
func checkTracked(t *testing.T, name string, ws *workspace, g *Graph, part []int) {
	t.Helper()
	k := ws.k
	for p, w := range partWeights(g, part, k) {
		if !slices.Equal(ws.w[p], w) {
			t.Fatalf("%s: part %d weighs %v, recount %v", name, p, ws.w[p], w)
		}
	}
	for v, adj := range g.Adj {
		wgt, cnt := make([]int64, k), make([]int32, k)
		for _, e := range adj {
			wgt[part[e.To]] += e.Wgt
			cnt[part[e.To]]++
		}
		if !slices.Equal(ws.connW[v*k:(v+1)*k], wgt) || !slices.Equal(ws.connN[v*k:(v+1)*k], cnt) {
			t.Fatalf("%s: vertex %d connectivity %v/%v, recount %v/%v",
				name, v, ws.connW[v*k:(v+1)*k], ws.connN[v*k:(v+1)*k], wgt, cnt)
		}
	}
	seen := make([]bool, len(part))
	for p := 0; p < k; p++ {
		prev, size := -1, 0
		for v := ws.head[p]; v != -1; prev, v = v, ws.next[v] {
			if part[v] != p || seen[v] || ws.prev[v] != prev {
				t.Fatalf("%s: part %d's member list is broken at vertex %d (in part %d, listed before: %v)", name, p, v, part[v], seen[v])
			}
			seen[v] = true
			size++
		}
		if size != ws.sizes[p] {
			t.Fatalf("%s: part %d lists %d members, holds %d", name, p, size, ws.sizes[p])
		}
	}
	if i := slices.Index(seen, false); i != -1 {
		t.Fatalf("%s: vertex %d is in no member list", name, i)
	}
}

// checkRebalance runs production and reference rebalance phase by phase on
// copies of one assignment and fails on the first difference. The phases run
// on the state rebalance builds (load), which a recount checks after each. It returns the
// longest cycle period production skipped over and how many moves it was
// spared.
func checkRebalance(t *testing.T, name string, g *Graph, start []int, k int, tol float64, frac []float64) (period, spared int) {
	t.Helper()
	got := slices.Clone(start)
	want := slices.Clone(start)

	ws := newWorkspace(g, k, frac)
	ws.load(g, got, tol)
	ref := newRebalanceStateReference(g, want, k, tol, frac)
	maxMoves := 4 * g.NumVertices()
	for round := 0; round < 4; round++ {
		pushed, pushedRef := ws.pushPhase(g, got, maxMoves), ref.pushPhaseReference(maxMoves)
		if pushed != pushedRef || !slices.Equal(got, want) {
			t.Fatalf("%s: round %d push: %d moves, reference %d; assignments equal: %v",
				name, round, pushed, pushedRef, slices.Equal(got, want))
		}
		checkTracked(t, fmt.Sprintf("%s: round %d push", name, round), ws, g, got)
		if made := len(ws.cycle.moves); pushed == maxMoves && made < pushed {
			// Budget spent with fewer moves logged than charged: a skip. (A
			// forced move restarts the log, so spared is an upper estimate;
			// it only feeds the "is the skip exercised at all" checks.)
			period = max(period, shortestPeriod(ws.cycle.moves))
			spared += pushed - made
		}
		filled, filledRef := ws.fillPhase(g, got, tol, maxMoves), ref.fillPhaseReference(maxMoves)
		if filled != filledRef || !slices.Equal(got, want) {
			t.Fatalf("%s: round %d fill: %d moves, reference %d; assignments equal: %v",
				name, round, filled, filledRef, slices.Equal(got, want))
		}
		checkTracked(t, fmt.Sprintf("%s: round %d fill", name, round), ws, g, got)
		if pushed+filled == 0 {
			break
		}
	}

	// And the entry point itself, on a workspace that has been used before.
	again := slices.Clone(start)
	ws.rebalance(g, again, tol)
	checkTracked(t, name+": rebalance", ws, g, again)
	wantAgain := slices.Clone(start)
	rebalanceReference(g, wantAgain, k, tol, frac)
	if !slices.Equal(again, wantAgain) || !slices.Equal(again, got) {
		t.Fatalf("%s: rebalance differs from the reference", name)
	}
	return period, spared
}

func TestRebalanceMatchesReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20030615))
		cycled, longest, sparedTotal := 0, 0, 0
		for i := 0; i < 600; i++ {
			k := 2 + rng.Intn(7)
			infeasible := i%2 == 1
			g, part := randomInstance(rng, k, infeasible)
			tol := []float64{0.03, 0.05, 0.10}[rng.Intn(3)]
			frac := randomFractions(rng, k)
			name := fmt.Sprintf("instance %d (n=%d k=%d ncon=%d infeasible=%v)", i, g.NumVertices(), k, g.Ncon, infeasible)
			period, spared := checkRebalance(t, name, g, part, k, tol, frac)
			if period > 0 {
				cycled++
			}
			longest = max(longest, period)
			sparedTotal += spared
		}
		if cycled < 20 {
			t.Errorf("only %d of 600 random instances cycled; the generator no longer exercises the skip", cycled)
		}
		t.Logf("%d of 600 instances cycled, longest period %d; %d moves skipped", cycled, longest, sparedTotal)
	})

	t.Run("period-2", func(t *testing.T) {
		g, part := periodTwoInstance()
		period, spared := checkRebalance(t, "period-2", g, part, 2, 0.05, nil)
		if period != 2 {
			t.Errorf("period %d, want 2", period)
		}
		// Four rounds (the fill phase moves vertex 0 there and back too, so
		// no round is idle), each charged its 20-move budget for 2 moves made.
		if spared != 4*(20-2) {
			t.Errorf("%d moves skipped, want %d", spared, 4*(20-2))
		}
	})

	// The instances Partition itself hands to rebalance on the two Brite
	// fixtures, under the mapping layer's options: grown-and-refined initial
	// partitions of the coarsest graph, then every level of the uncoarsening,
	// then the polish. This is where the long cycles are (the seeds are two
	// of those mapping.selectBest derives from the bench scenario's, picked
	// for the periods they reach).
	for _, fixture := range []struct {
		name    string
		seeds   []int64
		longest int // period reached at least
	}{
		{"brite_top", []int64{45, 45 + 7919}, 4},
		{"brite_profile_traffic", []int64{45 + 7919, 45 + 10*7919}, 10},
	} {
		t.Run(fixture.name, func(t *testing.T) {
			g := readFixture(t, fixture.name)
			longest, sparedTotal := 0, 0
			for trial, seed := range fixture.seeds {
				period, spared := checkPartitionRebalances(t, fmt.Sprintf("trial %d", trial), g, 8, seed, nil)
				longest, sparedTotal = max(longest, period), sparedTotal+spared
			}
			if longest < fixture.longest {
				t.Errorf("longest period %d, used to reach %d: the long cycles are no longer exercised", longest, fixture.longest)
			}
			t.Logf("longest period %d; %d moves skipped", longest, sparedTotal)
		})
	}

	// Multi-constraint instances with heterogeneous part fractions: the
	// clustered PROFILE graphs of Brite (k = 8) and TeraGrid (k = 5), cut to
	// ncon 3, 4 and 5 by keeping their first ncon-1 segment constraints and
	// the memory constraint, through the same sequence of calls. Each must
	// still reach a cycle (period ≥ 2) and skip moves over it.
	for _, fixture := range []struct {
		name string
		k    int
	}{{"brite_profile_segments", 8}, {"teragrid_profile_segments", 5}} {
		t.Run(fixture.name, func(t *testing.T) {
			full := readFixture(t, fixture.name)
			rng := rand.New(rand.NewSource(20260601))
			for ncon := 3; ncon <= 5; ncon++ {
				g := full.Clone()
				g.Ncon = ncon
				for v, w := range g.VWgt {
					g.VWgt[v] = append(w[:ncon-1:ncon-1], w[len(w)-1])
				}
				frac := make([]float64, fixture.k)
				var sum float64
				for p := range frac {
					frac[p] = 1 + 3*rng.Float64()
					sum += frac[p]
				}
				for p := range frac {
					frac[p] /= sum
				}
				longest, spared := checkPartitionRebalances(t, fmt.Sprintf("ncon %d", ncon), g, fixture.k, 45+int64(ncon)*7919, frac)
				if longest < 2 || spared == 0 {
					t.Errorf("ncon %d: longest period %d, %d moves skipped: the cycles are no longer exercised", ncon, longest, spared)
				}
				t.Logf("ncon %d: longest period %d; %d moves skipped", ncon, longest, spared)
			}
		})
	}
}

// checkPartitionRebalances checks every rebalance Partition makes on g under
// the mapping layer's options with the given seed and part fractions against
// the reference (checkRebalance): on grown-and-refined initial partitions of
// the coarsest graph, then at every level of the uncoarsening, then in the
// polish. It returns the longest cycle period production skipped over and
// how many moves it was spared.
func checkPartitionRebalances(t *testing.T, name string, g *Graph, k int, seed int64, frac []float64) (longest, sparedTotal int) {
	t.Helper()
	check := func(step string, g *Graph, part []int, tol float64) {
		period, spared := checkRebalance(t, name+" "+step, g, part, k, tol, frac)
		longest, sparedTotal = max(longest, period), sparedTotal+spared
	}
	opts, err := Options{Seed: seed, Imbalance: 0.10, Restarts: 20, RefinePasses: 16, PartFractions: frac}.withDefaults(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	ws := newWorkspace(g, k, frac)
	levels := ws.buildHierarchy(g, opts.CoarsenTo, rng)
	if len(levels) == 0 {
		t.Fatalf("%s: the graph no longer coarsens", name)
	}
	coarsest := levels[len(levels)-1].graph

	// Growings of the coarsest graph, as initialPartition makes them (on a
	// stream of their own, so that what follows is exactly Partition's
	// sequence of calls).
	growRng := rand.New(rand.NewSource(opts.Seed + 1))
	grown := make([]int, coarsest.NumVertices())
	for r := 0; r < opts.Restarts; r++ {
		ws.greedyGrow(coarsest, grown, growRng)
		ws.refine(coarsest, grown, opts.Imbalance, opts.RefinePasses, growRng)
		check(fmt.Sprintf("restart %d", r), coarsest, grown, opts.Imbalance)
	}
	part, spare := ws.initialPartition(coarsest, opts, rng)
	for i := len(levels) - 1; i >= 0; i-- {
		finer := g
		if i > 0 {
			finer = levels[i-1].graph
		}
		part, spare = project(spare, part, levels[i].fineToCoarse), part
		ws.refine(finer, part, opts.Imbalance, opts.RefinePasses, rng)
		check(fmt.Sprintf("level %d", i), finer, part, opts.Imbalance)
		ws.rebalance(finer, part, opts.Imbalance)
	}
	for _, eps := range []float64{0.10, 0.065, 0.03} {
		check(fmt.Sprintf("polish %.3f", eps), g, part, eps)
		ws.rebalance(g, part, eps)
		ws.refine(g, part, eps, opts.RefinePasses, rng)
	}
	check("final", g, part, 0.03)
	return longest, sparedTotal
}

// TestCycleLogVerifiesExactly feeds the log a recurring hash whose moves do
// not compose to the identity — what a 64-bit collision would look like —
// and checks that it is refused, and that the true recurrence after it is
// still found.
func TestCycleLogVerifiesExactly(t *testing.T) {
	l := cycleLog{seen: make(map[uint64]int), origin: make([]int, 8)}
	l.reset()
	if p := l.record(3, 0, 1); p != 0 {
		t.Fatalf("first move reported period %d", p)
	}
	// Pretend the assignment after the next move was seen at the start.
	next := l.hash ^ vertexInPartHash(5, 1) ^ vertexInPartHash(5, 2)
	l.seen[next] = 0
	if p := l.record(5, 1, 2); p != 0 {
		t.Fatalf("colliding hash accepted as period %d", p)
	}
	for _, o := range l.origin {
		if o != 0 {
			t.Fatal("a refused check left its scratch dirty")
		}
	}
	if p := l.record(5, 2, 1); p != 2 {
		t.Fatalf("5 went 1 -> 2 -> 1: period %d, want 2", p)
	}
	if p := l.record(3, 1, 0); p != 4 {
		t.Fatalf("back at the start after 4 moves: period %d, want 4", p)
	}
	// A vertex that moves three times inside one period: 0 -> 1 -> 2 -> 0.
	l.reset()
	l.record(1, 0, 1)
	l.record(1, 1, 2)
	if p := l.record(1, 2, 0); p != 3 {
		t.Fatalf("three-move tour: period %d, want 3", p)
	}
}

func TestRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19991231))
	for i := 0; i < 300; i++ {
		k := 2 + rng.Intn(7)
		g, start := randomInstance(rng, k, i%3 == 2)
		tol := []float64{0.03, 0.05, 0.10}[rng.Intn(3)]
		frac := randomFractions(rng, k)
		seed := rng.Int63()

		got, want := slices.Clone(start), slices.Clone(start)
		rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		ws := newWorkspace(g, k, frac)
		ws.rebalance(g, slices.Clone(start), tol) // a used workspace must behave like a new one
		ws.refine(g, got, tol, 10, rngGot)
		refineReference(g, want, k, tol, 10, frac, rngWant)
		if !slices.Equal(got, want) {
			t.Fatalf("instance %d (n=%d k=%d ncon=%d): refine differs from the reference", i, g.NumVertices(), k, g.Ncon)
		}
		checkTracked(t, fmt.Sprintf("instance %d refine", i), ws, g, got)
		if a, b := rngGot.Int63(), rngWant.Int63(); a != b {
			t.Fatalf("instance %d: refine left the random stream elsewhere than rand.Perm does", i)
		}
	}

	// The same on a real multilevel instance.
	g := readFixture(t, "brite_top")
	part, err := Partition(g, 8, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	shuffle := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		part[shuffle.Intn(len(part))] = shuffle.Intn(8)
	}
	got, want := slices.Clone(part), slices.Clone(part)
	ws := newWorkspace(g, 8, nil)
	ws.refine(g, got, 0.05, 10, rand.New(rand.NewSource(3)))
	refineReference(g, want, 8, 0.05, 10, nil, rand.New(rand.NewSource(3)))
	if !slices.Equal(got, want) {
		t.Fatal("Brite TOP graph: refine differs from the reference")
	}
	checkTracked(t, "Brite TOP graph refine", ws, g, got)
}
