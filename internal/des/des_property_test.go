package des

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

// cascadeHandler is a deterministic pseudo-random handler program driven by
// the payload value: each event spawns 0-2 follow-ups, local or remote, with
// times derived from the payload, so every execution of the same seed — any
// dispatch, any driver, any LP ownership — faces an identical workload. Remote
// follow-ups fire at least lookahead ahead. log, if non-nil, is called for
// every handler invocation (on the invoked LP's goroutine).
func cascadeHandler(numLPs int, lookahead float64, log func(lp int, tm float64, n int64)) Handler[any] {
	return func(lp int, tm float64, data any, s *Scheduler[any]) {
		n := data.(int64)
		if log != nil {
			log(lp, tm, n)
		}
		s.Charge(n%5 + 1)
		if n <= 0 {
			return
		}
		// Derive pseudo-random but deterministic choices from n.
		x := n*6364136223846793005 + 1442695040888963407
		spawn := int(uint64(x) % 3)
		for i := 0; i < spawn; i++ {
			y := x + int64(i)*997
			dst := int(uint64(y) % uint64(numLPs))
			child := n - 1 - int64(uint64(y)%3)
			if child < 0 {
				continue
			}
			if dst == lp {
				s.Schedule(lp, tm+lookahead/5, child)
			} else {
				s.Schedule(dst, tm+lookahead*(1+float64(uint64(y)%4)/4), child)
			}
		}
	}
}

// cascadeSeeds returns the seed events of a cascade: 2·numLPs events at
// random LPs and times in the first hundredth of a second.
func cascadeSeeds(numLPs int, seed int64) []Event[any] {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]Event[any], 2*numLPs)
	for i := range evs {
		evs[i] = Event[any]{LP: rng.Intn(numLPs), Time: rng.Float64() * 0.01, Data: int64(8 + rng.Intn(8))}
	}
	return evs
}

// randomCascade runs one seeded cascade through Run.
func randomCascade(t *testing.T, numLPs int, lookahead float64, seed int64, sequential bool) *Stats {
	t.Helper()
	k, err := New(Config[any]{NumLPs: numLPs, Lookahead: lookahead, Handler: cascadeHandler(numLPs, lookahead, nil), Sequential: sequential})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range cascadeSeeds(numLPs, seed) {
		k.Schedule(ev.LP, ev.Time, ev.Data)
	}
	st, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPropertySequentialParallelEquivalence: for arbitrary cascades, the
// parallel barrier protocol must produce byte-identical statistics to
// sequential execution.
func TestPropertySequentialParallelEquivalence(t *testing.T) {
	f := func(seed int64, lpRaw uint8) bool {
		numLPs := 2 + int(lpRaw)%6
		seq := randomCascade(t, numLPs, 0.002, seed, true)
		par := randomCascade(t, numLPs, 0.002, seed, false)
		if seq.Windows != par.Windows || seq.SkippedTime != par.SkippedTime {
			return false
		}
		for lp := 0; lp < numLPs; lp++ {
			if seq.Events[lp] != par.Events[lp] ||
				seq.Charges[lp] != par.Charges[lp] ||
				seq.RemoteSends[lp] != par.RemoteSends[lp] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(77))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyConservation: every scheduled event is eventually executed —
// handler invocations equal initial events plus spawned events.
func TestPropertyConservation(t *testing.T) {
	var spawned, executed int64
	numLPs := 4
	L := 0.001
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		executed++
		n := data.(int)
		if n > 0 {
			spawned++
			s.Schedule((lp+1)%numLPs, tm+L, n-1)
		}
	}
	k, _ := New(Config[any]{NumLPs: numLPs, Lookahead: L, Handler: h, Sequential: true})
	const initial = 10
	for i := 0; i < initial; i++ {
		k.Schedule(i%numLPs, float64(i)*0.0001, 20)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if executed != initial+spawned {
		t.Errorf("executed %d, want %d initial + %d spawned", executed, initial, spawned)
	}
}

// TestPropertyWindowMonotonicity: observer windows arrive in strictly
// increasing, non-overlapping time order.
func TestPropertyWindowMonotonicity(t *testing.T) {
	lastEnd := -1.0
	violations := 0
	hook := func(w *obs.Window) error {
		if w.Start < lastEnd-1e-12 || w.End <= w.Start {
			violations++
		}
		lastEnd = w.End
		return nil
	}
	h := func(lp int, tm float64, data any, s *Scheduler[any]) {
		n := data.(int)
		if n > 0 {
			// Mix of near and far future events to force window skips.
			gap := 0.0007
			if n%5 == 0 {
				gap = 0.5
			}
			s.Schedule((lp+1)%3, tm+gap, n-1)
		}
	}
	k, _ := New(Config[any]{NumLPs: 3, Lookahead: 0.0007, Handler: h, OnWindow: hook})
	k.Schedule(0, 0, 200)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Errorf("%d window ordering violations", violations)
	}
}

// TestPropertyChargesNonNegativeAndBounded: charges accumulate exactly what
// handlers report.
func TestPropertyChargesNonNegativeAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		st := randomCascade(t, 3, 0.001, seed, false)
		var events, charges int64
		for lp := 0; lp < 3; lp++ {
			if st.Charges[lp] < 0 || st.Events[lp] < 0 {
				return false
			}
			events += st.Events[lp]
			charges += st.Charges[lp]
		}
		// Each event charges 1..5.
		return charges >= events && charges <= 5*events
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
