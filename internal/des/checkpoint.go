package des

import (
	"fmt"
	"sort"
)

// Checkpoint is a consistent snapshot of the kernel taken at a window
// barrier: every pending event of every LP plus the cumulative run
// statistics. At a barrier no handler is executing and all cross-LP events
// have been merged into destination queues, so the queues alone are the
// complete simulation state the kernel owns.
type Checkpoint[P any] struct {
	// events[lp] holds LP lp's pending events ordered by (Time, seq).
	events [][]Event[P]
	stats  Stats
}

// PendingEvents returns the total number of events captured in the snapshot.
func (cp *Checkpoint[P]) PendingEvents() int {
	n := 0
	for _, q := range cp.events {
		n += len(q)
	}
	return n
}

// Stats returns the kernel's cumulative statistics (live; not a copy), current
// wherever Checkpoint is safe. Under a Stepper, VirtualEnd and Windows reflect
// the Steps executed locally and the per-LP slices cover only local LPs.
func (k *Kernel[P]) Stats() *Stats { return k.stats }

// Checkpoint snapshots the kernel. It is only safe where no handler runs:
// before Run, inside an OnWindow hook, or between an outside coordinator's
// Steps.
func (k *Kernel[P]) Checkpoint() *Checkpoint[P] {
	n := k.cfg.NumLPs
	cp := &Checkpoint[P]{events: make([][]Event[P], n)}
	for lp := 0; lp < n; lp++ {
		evs := k.queues[lp].export(lp)
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Time != evs[j].Time {
				return evs[i].Time < evs[j].Time
			}
			return evs[i].seq < evs[j].seq
		})
		cp.events[lp] = evs
	}
	cp.stats = k.stats.Clone()
	return cp
}

// Restore reinstalls a checkpoint, discarding the kernel's current queues
// and statistics, and starts a fresh window grid. The discarded queues'
// blocks go back to the kernel's free list, and a seeded stream's rest, which
// the checkpoint holds as events, is pushed like any other event. Like Checkpoint it is safe
// wherever no handler runs — in particular inside an OnWindow hook, where the
// running loop carries on from the restored state at its next iteration: a
// membership change is a step of the loop, not a restart. Each
// pending event is offered to remap (nil keeps the original owner): the
// returned LP becomes the event's new owner — how a recovery moves a dead
// engine's events onto survivors — and returning ok=false drops the event.
// When lookahead > 0 it replaces the window width, since a changed assignment
// cuts a different set of links. Events are reinserted in a deterministic
// order (LP, then time, then original sequence) under the restored window
// count's epoch, so a restored run replays identically.
func (k *Kernel[P]) Restore(cp *Checkpoint[P], lookahead float64, remap func(Event[P]) (int, bool)) error {
	n := k.cfg.NumLPs
	if len(cp.events) != n {
		return fmt.Errorf("des: checkpoint covers %d LPs, kernel has %d", len(cp.events), n)
	}
	for lp := range k.queues { // hand the blocks to the free list, keep the slices
		q := &k.queues[lp]
		for i := range q.runs {
			if r := &q.runs[i]; r.n > 1 { // r.first..r.last is a chain ending in nil
				r.last.next, k.free = k.free, r.first
			}
		}
		*q = eventQueue[P]{heads: q.heads[:0], runs: q.runs[:0]}
	}
	clear(k.keys)
	k.epoch = cp.stats.Windows
	for lp := 0; lp < n; lp++ {
		for _, ev := range cp.events[lp] {
			nlp := ev.LP
			if remap != nil {
				var ok bool
				nlp, ok = remap(ev)
				if !ok {
					continue
				}
			}
			if nlp < 0 || nlp >= n {
				return fmt.Errorf("des: restore remapped event at t=%g to invalid LP %d", ev.Time, nlp)
			}
			if err := k.push(nlp, ev.Time, ev.Data, phaseArrival); err != nil {
				return err
			}
		}
	}
	stats := cp.stats.Clone()
	k.stats = &stats
	k.grid.Regrid(lookahead)
	return nil
}
