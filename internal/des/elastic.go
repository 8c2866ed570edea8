package des

import "fmt"

// Checkpoint export/import — the kernel face of elastic membership. A
// coordinator reseating workers onto a changed engine set pulls every pending
// event out of a barrier checkpoint (Export), routes each to its new owner,
// and rebuilds a synthetic checkpoint per worker (BuildCheckpoint) that
// Restore replays exactly as it would the original: events are emitted in the
// same LP-major captured order Restore pushes them, so per-LP sequence
// numbers — and therefore every later tie-break — come out identical to a
// restore of the original checkpoint under the same remap.

// Export returns the checkpoint's pending events as barrier-transfer records,
// LP-major in each LP's captured (Time, seq) order — precisely the order
// Restore would push them. Dst is the owning LP at capture; Src/SrcIdx are
// zeroed (a checkpointed event's merge key has already been consumed).
func (cp *Checkpoint[P]) Export() []Sent[P] {
	out := make([]Sent[P], 0, cp.PendingEvents())
	for lp, evs := range cp.events {
		for _, ev := range evs {
			out = append(out, Sent[P]{Time: ev.Time, Dst: lp, Data: ev.Data})
		}
	}
	return out
}

// BuildCheckpoint assembles a synthetic checkpoint at virtual time at from
// barrier-transfer records. Events append to their Dst queue in the given
// order WITHOUT re-sorting: the caller's order is the restore push order, so
// a coordinator that walks an exported checkpoint in capture order and
// filters per new owner reproduces, per LP, the exact sequence numbering an
// in-process Restore of the original checkpoint would produce.
func BuildCheckpoint[P any](at float64, numLPs int, stats Stats, events []Sent[P]) (*Checkpoint[P], error) {
	cp := &Checkpoint[P]{Time: at, events: make([][]Event[P], numLPs)}
	for _, sv := range events {
		if sv.Dst < 0 || sv.Dst >= numLPs {
			return nil, fmt.Errorf("des: checkpoint event at t=%g for invalid LP %d of %d", sv.Time, sv.Dst, numLPs)
		}
		cp.events[sv.Dst] = append(cp.events[sv.Dst], Event[P]{Time: sv.Time, LP: sv.Dst, Data: sv.Data})
	}
	cp.stats = stats.Clone()
	if len(cp.stats.Events) != numLPs || len(cp.stats.Charges) != numLPs || len(cp.stats.RemoteSends) != numLPs {
		return nil, fmt.Errorf("des: checkpoint stats cover %d LPs, want %d", len(cp.stats.Events), numLPs)
	}
	return cp, nil
}
