package des

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// Schedule pushes one initial event onto LP lp under its next arrival key,
// for the tests that seed in arbitrary order or push from an OnWindow hook.
// Like Seed it is only safe where no handler runs.
func (k *Kernel[P]) Schedule(lp int, t float64, data P) error {
	if lp < 0 || lp >= k.cfg.NumLPs {
		return fmt.Errorf("des: initial event for invalid LP %d", lp)
	}
	if !(t >= 0) {
		return fmt.Errorf("des: initial event at negative or NaN time %g", t)
	}
	return k.push(lp, t, data, phaseArrival)
}

// heldBlocks is the set of queue blocks the kernel holds: its free list and
// every run's chain.
func (k *Kernel[P]) heldBlocks() map[*queueBlock[P]]bool {
	held := map[*queueBlock[P]]bool{}
	for b := k.free; b != nil; b = b.next {
		held[b] = true
	}
	for lp := range k.queues {
		for _, r := range k.queues[lp].runs {
			for b := r.first; r.n > 1 && b != nil; b = b.next {
				held[b] = true
			}
		}
	}
	return held
}

// TestSeedValidation: what Seed refuses, each with its typed error, leaving
// the queue as it was; and what it accepts — an empty stream, which is
// nothing, ties, and a stream on an LP that already holds pushes.
func TestSeedValidation(t *testing.T) {
	times := func(ts ...float64) func(int) (float64, any) {
		return func(i int) (float64, any) { return ts[i], i }
	}
	for _, c := range []struct {
		name  string
		lp, n int
		at    func(int) (float64, any)
		prep  func(k *Kernel[any])
		want  error // nil: accepted
	}{
		{name: "LP below range", lp: -1, n: 1, at: times(0), want: ErrBadSeed},
		{name: "LP above range", lp: 2, n: 1, at: times(0), want: ErrBadSeed},
		{name: "negative length", lp: 0, n: -1, at: times(), want: ErrBadSeed},
		{name: "second stream", lp: 0, n: 1, at: times(1), want: ErrBadSeed,
			prep: func(k *Kernel[any]) { _ = k.Seed(0, 1, times(0)) }},
		{name: "NaN", lp: 0, n: 3, at: times(0, math.NaN(), 1), want: ErrBadSeed},
		{name: "negative", lp: 0, n: 2, at: times(-0.5, 1), want: ErrBadSeed},
		{name: "falling", lp: 0, n: 3, at: times(0.1, 0.3, 0.2), want: ErrBadSeed},
		{name: "ranks past the key space", lp: 0, n: 2, at: times(0, 0), want: ErrKeySpace,
			prep: func(k *Kernel[any]) { k.keys[0].next[phaseArrival] = maxKeyField }},
		{name: "epoch past the key space", lp: 0, n: 1, at: times(0), want: ErrKeySpace,
			prep: func(k *Kernel[any]) { k.epoch = maxKeyField + 1 }},
		{name: "last rank in the key space", lp: 0, n: 1, at: times(0),
			prep: func(k *Kernel[any]) { k.keys[0].next[phaseArrival] = maxKeyField }},
		{name: "empty", lp: 1, n: 0, at: times()},
		{name: "after an empty stream", lp: 1, n: 1, at: times(1),
			prep: func(k *Kernel[any]) { _ = k.Seed(1, 0, times()) }},
		{name: "ties", lp: 1, n: 4, at: times(0, 0.5, 0.5, 0.5)},
		{name: "after pushes", lp: 0, n: 2, at: times(0.5, 0.5),
			prep: func(k *Kernel[any]) { _ = k.Schedule(0, 0.5, "pushed") }},
	} {
		k, err := New(Config[any]{NumLPs: 2, Lookahead: 1, Handler: func(int, float64, any, *Scheduler[any]) {}})
		if err != nil {
			t.Fatal(err)
		}
		if c.prep != nil {
			c.prep(k)
		}
		lenBefore := k.queues[0].Len() + k.queues[1].Len()
		err = k.Seed(c.lp, c.n, c.at)
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: refused: %v", c.name, err)
			} else if got := k.queues[0].Len() + k.queues[1].Len(); got != lenBefore+c.n {
				t.Errorf("%s: %d events pending, want %d", c.name, got, lenBefore+c.n)
			}
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if got := k.queues[0].Len() + k.queues[1].Len(); got != lenBefore {
			t.Errorf("%s: refused, but %d events pending, want %d", c.name, got, lenBefore)
		}
	}
}

// TestSeedMatchesSchedule: streams handed over by Seed run exactly as the
// same events pushed one by one in stream order — handler-call logs and
// Stats — through a Checkpoint → Restore inside the window hook that finds
// each stream partly consumed and moves its rest to other LPs. A push before
// the stream on the same LP, at a time the stream repeats, pops first, as its
// key is lower.
func TestSeedMatchesSchedule(t *testing.T) {
	const numLPs, L = 3, 0.002
	c := regridCase{numLPs: numLPs, L: L}
	rng := rand.New(rand.NewSource(11))
	streams := make([][]Event[any], numLPs)
	for lp := range streams {
		tm := 0.0
		for i := 0; i < 150; i++ {
			tm += float64(rng.Intn(3)) * L / 4 // ties inside the stream
			streams[lp] = append(streams[lp], Event[any]{Time: tm, LP: lp, Data: int64(rng.Intn(4))})
		}
	}
	run := func(seeded bool) (*execution, int) {
		x := &execution{logs: make([][]string, numLPs)}
		var k *Kernel[any]
		pending := -1 // the stream events not yet in a heap at the restore
		k, err := New(Config[any]{NumLPs: numLPs, Lookahead: L, Handler: cascadeHandler(numLPs, L, x.logger()),
			OnWindow: func(w *obs.Window) error {
				if w.End < 0.05 || pending >= 0 {
					return nil
				}
				pending = 0
				for lp := range k.queues {
					pending += k.queues[lp].stream.n - k.queues[lp].stream.read
				}
				return k.Restore(k.Checkpoint(), 0, c.remap)
			}})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Schedule(1, streams[1][10].Time, int64(0)); err != nil {
			t.Fatal(err)
		}
		for lp, evs := range streams {
			if seeded {
				err = k.Seed(lp, len(evs), func(i int) (float64, any) { return evs[i].Time, evs[i].Data })
			} else {
				for _, ev := range evs {
					if err = k.Schedule(lp, ev.Time, ev.Data); err != nil {
						break
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		st, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return finish(x, st, &streamRec{}), pending
	}
	want, _ := run(false)
	got, pending := run(true)
	if pending <= 0 || pending >= numLPs*150 {
		t.Fatalf("the restore found %d stream events pending, want some of %d", pending, numLPs*150)
	}
	if !reflect.DeepEqual(got.logs, want.logs) {
		t.Error("handler-call logs of the seeded run diverge from the pushed one")
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("stats diverge\n got %+v\nwant %+v", got.stats, want.stats)
	}
}

// TestRestoreKeepsBlocks: Restore hands the replaced queues' blocks to the
// kernel's free list, so a run whose hook checkpoints and restores every 25
// windows, on a constant population of events, holds after the run no block
// it did not hold before the first restore.
func TestRestoreKeepsBlocks(t *testing.T) {
	const numLPs, L = 4, 0.01
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		if v := data.(int); v < 128 {
			s.Schedule((lp+1+v%2)%numLPs, s.windowEnd, v)
			s.Schedule(lp, tm+L/4, 128+v)
		}
	}
	var k *Kernel[any]
	var before map[*queueBlock[any]]bool // the blocks held before the first restore
	restores := 0
	k, err := New(Config[any]{NumLPs: numLPs, Lookahead: L, Handler: h, EndTime: 4,
		OnWindow: func(w *obs.Window) error {
			if w.Index < 100 || w.Index%25 != 0 {
				return nil
			}
			if before == nil {
				before = k.heldBlocks()
			}
			restores++
			return k.Restore(k.Checkpoint(), 0, nil)
		}})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 32*numLPs; v++ {
		if err := k.Schedule(v%numLPs, 0.001*float64(v+1), v%128); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if restores < 10 || len(before) == 0 {
		t.Fatalf("%d restores over %d blocks, want at least 10 over some", restores, len(before))
	}
	after := k.heldBlocks()
	added := 0
	for b := range after {
		if !before[b] {
			added++
		}
	}
	if added > 0 {
		t.Errorf("after %d restores the kernel holds %d blocks, %d of them new since the first restore (%d held then)",
			restores, len(after), added, len(before))
	}
}
