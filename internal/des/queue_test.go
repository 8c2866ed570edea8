package des

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
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
// the sorted run compacts at least twice with entries still pending, then
// mixes phases: rising bursts (with repeats, so equal times meet rising seqs),
// one time pushed many times, strictly falling times, random interleavings on
// a coarse time grid, a drain to empty before the next refill, and a pop of
// more than half. Seqs rise as pushLocal's do, or — every fourth script — come
// from a shuffled pool, so the order is exercised as (time, seq), not as
// (time, arrival). compactions counts the run's compactions with entries
// pending.
func queueScript(seed int64) (compactions int, err error) {
	rng := rand.New(rand.NewSource(seed))
	q, ref := &eventQueue[any]{}, &eventHeapReference{}
	var bySeq [640]Event[any] // the reference's export, indexed by seq
	var pool []int            // shuffled seqs, when the script uses them
	if seed%4 == 3 {
		pool = rng.Perm(len(bySeq))
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
		return nil
	}
	push := func(t float64) error {
		seq := int64(pushed)
		if pool != nil {
			seq = int64(pool[pushed])
		}
		q.push(t, seq, pushed)
		ref.push(t, seq, pushed)
		pushed++
		return check("push")
	}
	pop := func() error {
		before := q.runHead
		t, d := q.pop()
		wt, wd := ref.pop()
		if t != wt || d != wd {
			return fmt.Errorf("seed %d step %d: popped (%g, %v), reference (%g, %v)", seed, step+1, t, d, wt, wd)
		}
		if before > 0 && q.runHead == 0 && len(q.runTimes) > 0 {
			compactions++
		}
		return check("pop")
	}
	now := 0.0
	for phase := 0; pushed < 400 && err == nil; phase++ {
		kind := phase
		if phase >= 4 {
			kind = 4 + rng.Intn(6)
		}
		n := 8 + rng.Intn(40)
		switch kind {
		case 0, 2, 4: // rising burst; the opening ones are long
			if kind != 4 {
				n = 120
			}
			for i := 0; i < n && err == nil; i++ {
				now += float64(rng.Intn(3)) / 8
				err = push(now)
			}
		case 1, 3, 5: // pop more than half
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
		}
	}
	return compactions, err
}

// TestEventQueueMatchesReference: the two-tier queue pops, measures and
// exports exactly what the single heap it replaced does, step by step, over
// 500 seeded scripts. (Checkpoint → Restore with a remap in mid-run is
// TestRunMatchesSteppedGroups'.)
func TestEventQueueMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		compactions, err := queueScript(seed)
		if err != nil {
			t.Fatal(err)
		}
		if compactions < 2 {
			t.Fatalf("seed %d: the sorted run compacted %d times with entries pending, want >= 2", seed, compactions)
		}
	}
}

// TestReserveSizesTheSortedRun: after Reserve(lp, n), n events scheduled in
// firing order (ties included) all land in the sorted run, and none of its
// three arrays is regrown on the way; the heap tier is not touched. A hint
// that names no LP, or no events, is ignored.
func TestReserveSizesTheSortedRun(t *testing.T) {
	k, err := New(Config[int]{NumLPs: 2, Lookahead: 1, Handler: func(int, float64, int, *Scheduler[int]) {}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	k.Reserve(1, n)
	k.Reserve(2, n)
	k.Reserve(-1, n)
	k.Reserve(0, -n)
	q := &k.queues[1]
	caps := [3]int{cap(q.runTimes), cap(q.runSeqs), cap(q.runDatas)}
	if min(caps[0], caps[1], caps[2]) < n || cap(k.queues[0].runTimes) != 0 {
		t.Fatalf("Reserve(1, %d) left run capacities %v on LP 1 and %d on LP 0", n, caps, cap(k.queues[0].runTimes))
	}
	for i := 0; i < n; i++ {
		if err := k.Schedule(1, float64(i/3), i); err != nil {
			t.Fatal(err)
		}
	}
	if got := [3]int{cap(q.runTimes), cap(q.runSeqs), cap(q.runDatas)}; got != caps {
		t.Errorf("run capacities %v after %d ascending Schedule calls, %v after Reserve", got, n, caps)
	}
	if len(q.runTimes) != n || len(q.times) != 0 {
		t.Errorf("%d events in the run and %d in the heap, want all %d in the run", len(q.runTimes), len(q.times), n)
	}
	for i := 0; i < n; i++ {
		if tm, d := q.pop(); tm != float64(i/3) || d != i {
			t.Fatalf("pop %d = (%g, %d)", i, tm, d)
		}
	}
}
