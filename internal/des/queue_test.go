package des

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// eventHeapReference is the pending-event queue as it was before the sorted
// front and the hole sifts: one binary min-heap ordered by (time, seq), sifted
// by three-array swaps. It left production verbatim and is kept as the oracle
// eventQueue is verified against; only head is new.
type eventHeapReference struct {
	times []float64
	seqs  []int64
	datas []any
	// Pad each heap header out to two cache lines: the kernel stores one
	// eventHeapReference per LP in a flat slice, and push/pop rewrite the slice
	// headers, so without padding adjacent LPs' headers would false-share
	// under parallel execution.
	_ [56]byte
}

func (h *eventHeapReference) Len() int { return len(h.times) }

func (h *eventHeapReference) less(i, j int) bool {
	if h.times[i] != h.times[j] {
		return h.times[i] < h.times[j]
	}
	return h.seqs[i] < h.seqs[j]
}

func (h *eventHeapReference) swap(i, j int) {
	h.times[i], h.times[j] = h.times[j], h.times[i]
	h.seqs[i], h.seqs[j] = h.seqs[j], h.seqs[i]
	h.datas[i], h.datas[j] = h.datas[j], h.datas[i]
}

func (h *eventHeapReference) push(t float64, seq int64, data any) {
	h.times = append(h.times, t)
	h.seqs = append(h.seqs, seq)
	h.datas = append(h.datas, data)
	i := h.Len() - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *eventHeapReference) pop() (float64, any) {
	t, data := h.times[0], h.datas[0]
	last := h.Len() - 1
	h.swap(0, last)
	h.datas[last] = nil // release the payload reference
	h.times, h.seqs, h.datas = h.times[:last], h.seqs[:last], h.datas[:last]
	i := 0
	for {
		left := 2*i + 1
		if left >= last {
			break
		}
		child := left
		if right := left + 1; right < last && h.less(right, left) {
			child = right
		}
		if !h.less(child, i) {
			break
		}
		h.swap(child, i)
		i = child
	}
	return t, data
}

// export copies the heap's contents out as Events for LP lp (heap order, not
// time order — checkpointing sorts afterwards).
func (h *eventHeapReference) export(lp int) []Event[any] {
	evs := make([]Event[any], h.Len())
	for i := range evs {
		evs[i] = Event[any]{Time: h.times[i], LP: lp, Data: h.datas[i], seq: h.seqs[i]}
	}
	return evs
}

func (h *eventHeapReference) head() float64 {
	if h.Len() == 0 {
		return math.Inf(1)
	}
	return h.times[0]
}

// queueScript drives an eventQueue and the reference heap through one seeded
// script of pushes and pops and returns the first divergence: after every step
// the two must agree on what was popped, on Len, on head and on export as a
// multiset.
// Every script opens with two rounds of "long rising burst, pop most of it", so
// a run fills blocks past their end and is read across them, then a falling
// burst, which holds several runs at once, and a drain, after which the next
// push refills an emptied run; then it mixes phases: rising bursts (with
// repeats, so equal times meet rising seqs), one time pushed many times,
// strictly falling times, random interleavings on a coarse time grid, a drain
// to empty before a refill that starts where it ended, and a pop of more than
// half. Seqs rise as pushLocal's do, or — every fourth script — come
// from a shuffled pool, so the order is exercised as (time, seq), not as
// (time, arrival). Before the first push the queue is seeded with a stream of
// 3 to 150 events on the same 1/8 grid, ties included, whose keys are all
// below or all above the pushes' (as Seed's ranks fall before or after an
// LP's other pushes of its epoch); every fifth script has none. The reference
// is fed the stream's events by push. cov counts what the script made the
// queue's structure do.
func queueScript(seed int64) (cov queueCoverage, err error) {
	rng := rand.New(rand.NewSource(seed))
	q, ref := &eventQueue[any]{}, &eventHeapReference{}
	var free *queueBlock[any]
	const pushSeqs = 640      // the pushes' seqs are below this, before any offset
	var bySeq [790]Event[any] // the reference's export, indexed by seq
	var pool []int            // shuffled seqs, when the script uses them
	if seed%4 == 3 {
		pool = rng.Perm(pushSeqs)
	}
	m, streamSeq, pushSeq := 0, int64(pushSeqs), int64(0) // the stream's length and first seq, the pushes' offset
	if seed%5 != 0 {
		m = 3 + rng.Intn(148)
	}
	if seed%2 == 1 {
		streamSeq, pushSeq = 0, int64(m)
	}
	times := make([]float64, m)
	for i := range times {
		if i > 0 {
			times[i] = times[i-1] + float64(rng.Intn(3))/8
		}
		ref.push(times[i], streamSeq+int64(i), -1-i)
	}
	if m > 0 {
		q.seed(func(i int) (float64, any) { return times[i], -1 - i }, m, streamSeq)
	}
	pushed, step := 0, 0
	check := func(what string) error {
		step++
		if q.Len() != ref.Len() || q.head() != ref.head() {
			return fmt.Errorf("seed %d step %d (%s): Len %d head %g, reference %d %g", seed, step, what, q.Len(), q.head(), ref.Len(), ref.head())
		}
		want, got := ref.export(3), q.export(3)
		for _, ev := range want {
			bySeq[ev.seq] = ev
		}
		for _, ev := range got {
			if bySeq[ev.seq] != ev || ev.Data == nil {
				return fmt.Errorf("seed %d step %d (%s): export holds %+v, reference %+v", seed, step, what, ev, bySeq[ev.seq])
			}
			bySeq[ev.seq].Data = nil // each reference event matches once
		}
		if len(got) != len(want) {
			return fmt.Errorf("seed %d step %d (%s): export holds %d events, reference %d", seed, step, what, len(got), len(want))
		}
		if s := &q.stream; s.read > 1 && s.read < s.n {
			cov.midStream++
		}
		return nil
	}
	push := func(t float64) error {
		seq := pushSeq + int64(pushed)
		if pool != nil {
			seq = pushSeq + int64(pool[pushed])
		}
		runs, live := len(q.runs), len(q.heads)
		q.push(&free, t, seq, pushed)
		ref.push(t, seq, pushed)
		pushed++
		if len(q.runs) == runs && len(q.heads) > live {
			cov.reused++
		}
		cov.maxLive = max(cov.maxLive, len(q.heads))
		return check("push")
	}
	popped, streamed := math.Inf(-1), false // the last pop's time and source
	pop := func() error {
		var r *queueRun[any]
		var first *queueBlock[any]
		fromStream := q.heads[0].run < 0
		if !fromStream {
			r = &q.runs[q.heads[0].run]
			first = r.first
		}
		t, d := q.pop(&free)
		if t == popped && fromStream && streamed {
			cov.streamTies++
		} else if t == popped && (fromStream || streamed) {
			cov.crossTies++
		}
		popped, streamed = t, fromStream
		wt, wd := ref.pop()
		if t != wt || d != wd {
			return fmt.Errorf("seed %d step %d: popped (%g, %v), reference (%g, %v)", seed, step+1, t, d, wt, wd)
		}
		if first != nil && r.first != nil && r.first != first {
			cov.crossed++
		}
		return check("pop")
	}
	now := 0.0
	opening := [...]int{0, 1, 0, 1, 7, 9}
	for phase := 0; pushed < 400 && err == nil; phase++ {
		kind := 0
		if phase < len(opening) {
			kind = opening[phase]
		} else {
			kind = 4 + rng.Intn(6)
		}
		n := 8 + rng.Intn(40)
		switch kind {
		case 0, 4: // rising burst; the opening ones are long
			if kind == 0 {
				n = 120
			}
			for i := 0; i < n && err == nil; i++ {
				now += float64(rng.Intn(3)) / 8
				err = push(now)
			}
		case 1, 5: // pop more than half
			for n = q.Len()/2 + 1 + rng.Intn(q.Len()/4+1); n > 0 && q.Len() > 0 && err == nil; n-- {
				err = pop()
			}
		case 6: // one time, rising seqs
			for i := 0; i < n && err == nil; i++ {
				err = push(now)
			}
		case 7: // strictly falling times
			for i := 0; i < n && err == nil; i++ {
				err = push(now + float64(n-i)/16)
			}
		case 8: // interleaving on a coarse grid around now
			for i := 0; i < 2*n && err == nil; i++ {
				if q.Len() > 0 && rng.Intn(5) < 2 {
					err = pop()
				} else {
					err = push(now + float64(rng.Intn(64))/8)
				}
			}
		case 9: // drain: whatever comes next refills an exhausted queue
			for q.Len() > 0 && err == nil {
				err = pop()
			}
			now = max(now, popped)
		}
	}
	return cov, err
}

// queueCoverage counts, over one script, the pops that moved a run's read
// position into its next block, the pushes that refilled a run emptied
// earlier, and the most runs non-empty at once; the checks that exported a
// stream popped from but not used up; the pops that tied the previous pop's
// time, both from the stream, or one from the stream and one from a run.
type queueCoverage struct{ crossed, reused, maxLive, midStream, streamTies, crossTies int }

// TestEventQueueMatchesReference: the run queue pops, measures and exports
// exactly what the single heap it replaced does, step by step, over 500
// seeded scripts, each of which reads a run across a block boundary, refills
// an emptied run and holds two runs at once, and each non-empty seeded stream
// of which is exported partly consumed. Over all scripts, equal times pop
// from inside a stream and across a stream and the pushes. (Checkpoint →
// Restore with a remap in mid-run is TestRunMatchesSteppedGroups'.)
func TestEventQueueMatchesReference(t *testing.T) {
	var streamTies, crossTies int
	for seed := int64(0); seed < 500; seed++ {
		cov, err := queueScript(seed)
		if err != nil {
			t.Fatal(err)
		}
		if cov.crossed == 0 || cov.reused == 0 || cov.maxLive < 2 {
			t.Fatalf("seed %d: %d block crossings, %d emptied runs refilled, at most %d runs at once; want >= 1, >= 1, >= 2",
				seed, cov.crossed, cov.reused, cov.maxLive)
		}
		if seed%5 != 0 && cov.midStream == 0 {
			t.Fatalf("seed %d: the stream was never exported partly consumed", seed)
		}
		streamTies, crossTies = streamTies+cov.streamTies, crossTies+cov.crossTies
	}
	if streamTies == 0 || crossTies == 0 {
		t.Fatalf("%d ties inside streams, %d between a stream and the pushes; want >= 1 each", streamTies, crossTies)
	}
}

// TestQueueAdversarialOrders: the orders no set of link streams produces —
// 40 000 strictly falling pushes, which open one run each, and 40 000 shuffled
// ones on a grid coarse enough for ties — drain exactly as the reference heap
// pops them, and the queue allocates at most 600 bytes per event doing it
// (the plain heap: about 112). Strictly falling is the worst case: one-entry
// runs own no block, so the queue is a heap of heads plus the run list.
func TestQueueAdversarialOrders(t *testing.T) {
	const n = 40000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, c := range []struct {
		name string
		time func(i int) float64
	}{
		{"falling", func(i int) float64 { return float64(n - i) }},
		{"shuffled", func(i int) float64 { return float64(perm[i] / 4) }},
	} {
		ref := &eventHeapReference{}
		for i := 0; i < n; i++ {
			ref.push(c.time(i), int64(i), i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q := &eventQueue[int]{}
		var free *queueBlock[int]
		for i := 0; i < n; i++ {
			q.push(&free, c.time(i), int64(i), i)
		}
		for i := 0; i < n; i++ {
			tm, d := q.pop(&free)
			if wt, wd := ref.pop(); tm != wt || d != wd.(int) {
				t.Fatalf("%s: pop %d = (%g, %d), reference (%g, %v)", c.name, i, tm, d, wt, wd)
			}
		}
		runtime.ReadMemStats(&after)
		if q.Len() != 0 || !math.IsInf(q.head(), 1) {
			t.Fatalf("%s: drained queue holds %d events, head %g", c.name, q.Len(), q.head())
		}
		if perEvent := float64(after.TotalAlloc-before.TotalAlloc) / n; perEvent > 600 && !raceEnabled {
			t.Errorf("%s: %.0f bytes allocated per event, want at most 600", c.name, perEvent)
		}
	}
}

// TestQueueSteadyStateAllocs: once a queue has grown to what its streams
// need, refilling and draining its blocks allocates nothing — a consumed block
// goes back to the free list and the next push takes it from there.
// Each cycle feeds five interleaved rising streams three blocks deep and pops
// everything, as a kernel's windows do.
func TestQueueSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own schedule")
	}
	q := &eventQueue[int]{}
	var free *queueBlock[int]
	var seq int64
	now := 0.0
	cycle := func() {
		for i := 0; i < 5*3*blockSize; i++ {
			q.push(&free, now+float64(i/5)-float64(i%5)/64, seq, i)
			seq++
		}
		for q.Len() > 0 {
			now, _ = q.pop(&free)
		}
	}
	cycle() // warm-up: the runs, the heap and the blocks
	if len(q.runs) != 5 || free == nil {
		t.Fatalf("warm-up left %d runs and free list %p, want 5 runs and pooled blocks", len(q.runs), free)
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("a push/pop cycle allocated %.0f times, want 0", allocs)
	}
}

// TestQueueBlockFillsItsSizeClass: a block of a 12-byte pointer-free payload,
// the emulator's, stays inside the allocator's 2 048-byte size class and fills
// more of it than the 1 792-byte class below would hold, so a change of
// blockSize or of the entry layout cannot spill a block into the next class
// unnoticed.
func TestQueueBlockFillsItsSizeClass(t *testing.T) {
	type payload struct{ a, b, c int32 }
	if size := unsafe.Sizeof(payload{}); size != 12 {
		t.Fatalf("payload is %d bytes, want 12", size)
	}
	if size := unsafe.Sizeof(queueBlock[payload]{}); size <= 1792 || size > 2048 {
		t.Errorf("a block is %d bytes, want it in (1792, 2048]", size)
	}
}
