package obs

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// Distributed window tracing. A Span is one timed interval of the
// conservative-window protocol — an engine computing a window, a worker
// waiting at the barrier for the window's critical path, wire transfer,
// migration. Workers emit wall-clock spans; the coordinator
// merges them with the deterministic modeled-time spans it derives from the
// window counters into one virtual-time-aligned cluster Timeline, which
// renders as a Chrome trace_event file (Perfetto-loadable) and feeds the
// online straggler-attribution report.
//
// Determinism contract: a span's virtual fields (Kind, Engine, Window,
// Start, End) and its modeled Busy seconds derive purely from the merged
// per-window counters and the cost model, so they are byte-identical across
// in-process, loopback and TCP executions of the same scenario — exactly
// like the result path. Wall is measured wall-clock and Worker reflects the
// deployment shape; both are excluded from the canonical form (mirroring
// dist.ResultJSON's wall-clock exclusions).

// SpanKind classifies a Span.
type SpanKind uint8

const (
	// SpanCompute is one engine executing one window's events.
	SpanCompute SpanKind = iota
	// SpanBarrier is a worker idling at the window barrier for the gating
	// (critical-path) worker to finish.
	SpanBarrier
	// SpanWireSend is a worker encoding and sending its window report.
	SpanWireSend
	// SpanWireRecv is a worker decoding and injecting barrier events.
	SpanWireRecv
	// 4 is retired (a worker snapshotting at the checkpoint cadence) and stays
	// unused: the SPANS codec ships the number.
	_
	// SpanMigrate is a worker reseating state at a membership barrier.
	SpanMigrate
)

var spanKindNames = [...]string{
	SpanCompute:  "compute",
	SpanBarrier:  "barrier-wait",
	SpanWireSend: "wire-send",
	SpanWireRecv: "wire-recv",
	SpanMigrate:  "migrate",
}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) && spanKindNames[k] != "" {
		return spanKindNames[k]
	}
	return fmt.Sprintf("span(%d)", uint8(k))
}

// Span is one timed interval on the cluster timeline.
type Span struct {
	Kind SpanKind
	// Worker is the worker slot hosting the span (the Perfetto track). The
	// in-process run has no workers, so each engine is its own "worker".
	Worker int
	// Engine is the engine LP, or -1 for worker-level spans.
	Engine int
	// Window is the commit-order window index.
	Window int64
	// Start and End are the window's virtual-time bounds.
	Start, End float64
	// Busy is the modeled busy time in seconds (cost model × counters,
	// straggler factors included) — deterministic. Zero for wall-only kinds.
	Busy float64
	// Wall is measured wall-clock seconds — diagnostic, nondeterministic,
	// zero when unmeasured (e.g. in-process compute spans).
	Wall float64
}

// WorkerHealth is one worker's straggler-attribution summary.
type WorkerHealth struct {
	// Worker is the worker slot (or engine, in-process).
	Worker int
	// GatedWindows counts windows this worker's engines gated (held the
	// window critical path).
	GatedWindows int64
	// CriticalPath is the modeled seconds of critical path attributed to
	// this worker.
	CriticalPath float64
	// Share is CriticalPath over the run's total critical path (0..1).
	Share float64
}

// WindowStat is one committed window's attribution record.
type WindowStat struct {
	// Worker gated the window (held its critical path); -1 when the window
	// had no active engine.
	Worker int
	// Busy is the gating worker's modeled busy seconds.
	Busy float64
	// Lag is the gap between the gating worker and the next-slowest worker's
	// modeled busy seconds (0 with fewer than two active workers).
	Lag float64
}

// Timeline is the merged cluster trace: deterministic modeled spans committed
// window by window by the observation plane, wall-clock spans merged in from
// worker SPANS frames, and the online straggler attribution both feed.
// Methods lock internally — the coordinator commits while a debug endpoint
// reads.
//
// The store keeps what a window is, not the spans it renders as: one packed
// record per committed window in an append-only byte log (winLog). Everything
// else a Span carries — Kind, Window, the barrier-wait spans — is derived on
// read by the same attribution routine CommitWindow runs (DESIGN.md §15).
type Timeline struct {
	mu     sync.Mutex
	assign map[int]int // engine -> worker; engines absent map to themselves
	store

	// pendWall holds worker-measured compute wall times awaiting the next
	// CommitWindow, keyed by engine.
	pendWall map[int]float64

	// Straggler attribution: per worker, the windows it gated and its modeled
	// critical-path seconds.
	totals    []workerTotal
	critTotal float64

	// Writer scratch (readers bring their own); spill holds a record that may straddle.
	recs  []compRec
	attr  attribution
	spill []byte
}

type workerTotal struct {
	gated int64
	crit  float64
}

// store is the timeline's record storage. A copy taken under the lock is a
// consistent snapshot that may be read without it: chunks are never copied or
// rewritten below their filled length, and Reset drops them rather than
// recycling them.
type store struct {
	log winLog
	// Distributed runs only: a worker-measured Wall folded into a compute
	// record, and the non-compute spans AddWall merged.
	walls  chunked[wallRec]
	extras chunked[wallSpan]
	nspans int64 // spans the store renders as: compute + barrier-wait + extras
}

// compRec is one engine active in one window, unpacked from or into the log.
type compRec struct {
	busy           float64
	engine, worker int32
}

// wallRec is the measured Wall of the rec-th compute record; ascending in rec.
type wallRec struct {
	rec  int64
	wall float64
}

// wallSpan is a non-compute span as AddWall received it. at is the number of
// windows committed when it arrived: it renders after every span of windows
// [0, at) and before window at's.
type wallSpan struct {
	span Span
	at   int64
}

const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
)

// chunked is an append-only sequence in fixed-size chunks: growing it never
// copies a record, only the slice of chunk pointers.
type chunked[T any] struct {
	chunks []*[chunkLen]T
	n      int64
}

func (c *chunked[T]) push(v T) {
	i := c.n & (chunkLen - 1)
	if i == 0 {
		c.chunks = append(c.chunks, new([chunkLen]T))
	}
	c.chunks[len(c.chunks)-1][i] = v
	c.n++
}

func (c *chunked[T]) at(i int64) *T {
	return &c.chunks[i>>chunkShift][i&(chunkLen-1)]
}

// winLog holds one record per committed window, storing only what a reader
// cannot predict from the winCodec state it evolves in step with the writer;
// floats are little-endian bits:
//
//	uvarint(set<<2 | form): set has bit e for each active engine e
//	  form 0: start is the previous end; 1: start is gridStart(idx + varint delta);
//	  2: start and end follow, 8 B each; 3: a flag byte follows, a form 0–2 plus
//	  regrid (4): 8 B of a new width, and idx restarts at 0, before the bounds;
//	  listed (8): set is the record count and each record opens with
//	  uvarint(engine), uvarint(worker), where it is otherwise worker = engine
//	end = start + width, unless form 2
//	per active engine, engine-ascending: a busy slot byte s < 255 naming
//	busy[s], or 255 and 8 B that replace busy[slot(v)]
//
// The writer checks every prediction bit for bit before it relies on it, so a
// window off the announced grid, an engine past maskBits or a worker other
// than the engine costs bytes, never exactness. Decoding is stateful, so a log
// is read only from window 0 on, each reader with a fresh zero codec; Reset
// zeroes the writer's with the rest of the store. Records fill fixed 16 KiB
// chunks (32 KiB misses the largest size class by its malloc header) and may
// straddle two; one whose worst case fits is encoded in place.
type winLog struct {
	chunks []*[logChunk]byte
	n      int64   // bytes written
	wins   int64   // windows written
	comp   int64   // compute records written
	grid   float64 // the width Regrid announced, adopted at the first window on it
	codec  winCodec
}

// winCodec is the state a log's writer and each of its readers evolve, zero at
// window 0: the previous window's end, the grid width, the grid index after
// the previous window's, and a direct-mapped table of recent busy bits.
// Snapshots copy it by value, so a reader never aliases the writer's table.
type winCodec struct {
	end, width float64
	idx        int64
	busy       [busySlots]uint64
}

const (
	logShift   = 14
	logChunk   = 1 << logShift
	busySlots  = 255                             // a slot byte; busySlots itself escapes raw bits
	maskBits   = 62                              // engines a head's set holds
	maxWinHead = binary.MaxVarintLen64 + 25      // a record's worst case: head, flags, width, bounds...
	maxCompRec = 2*binary.MaxVarintLen64 + 1 + 8 // ...and per active engine

	formNext, formJump, formRaw, formEscape = 0, 1, 2, 3
	escRegrid, escListed                    = 4, 8
)

// slot hashes busy bits to their table entry: the top byte of a Fibonacci
// multiplicative hash, integer arithmetic only.
func slot(v uint64) uint64 { return (v * 0x9e3779b97f4a7c15 >> 56) % busySlots }

// gridStart is the start of window m on a grid of the given width. The
// conversion rounds the product, so no caller's add fuses with it into an FMA.
func gridStart(m int64, width float64) float64 { return float64(float64(m) * width) }

// gridIndex returns the m whose window on the grid is [start, end) bit for bit.
func gridIndex(start, end, width float64) (int64, bool) {
	m := math.Round(start / width)
	s := gridStart(int64(m), width)
	return int64(m), math.Abs(m) < 1<<53 && math.Float64bits(s) == math.Float64bits(start) && math.Float64bits(s+width) == math.Float64bits(end)
}

// tail returns the unwritten rest of the last chunk, opening a chunk when every
// one is full; call it only to write.
func (l *winLog) tail() []byte {
	if int64(len(l.chunks))<<logShift == l.n {
		l.chunks = append(l.chunks, new([logChunk]byte))
	}
	return l.chunks[len(l.chunks)-1][l.n&(logChunk-1):]
}

// push appends one window's record and returns spill for reuse.
func (l *winLog) push(start, end float64, recs []compRec, spill []byte) []byte {
	if t := l.tail(); len(t) >= maxWinHead+maxCompRec*len(recs) {
		l.n += int64(len(l.codec.appendWindow(t[:0], l.grid, start, end, recs)))
	} else {
		spill = l.codec.appendWindow(spill[:0], l.grid, start, end, recs)
		for b := spill; len(b) > 0; {
			k := copy(l.tail(), b)
			b, l.n = b[k:], l.n+int64(k)
		}
	}
	l.wins, l.comp = l.wins+1, l.comp+int64(len(recs))
	return spill
}

// appendWindow encodes one window's record onto b and advances the codec past
// it, adopting grid as its width if the window lies on grid and not on width.
func (c *winCodec) appendWindow(b []byte, grid, start, end float64, recs []compRec) []byte {
	var set, flags uint64
	for _, r := range recs {
		if e := uint64(r.engine); e >= maskBits || set>>(e&63) != 0 || r.worker != r.engine {
			flags = escListed
		}
		set |= 1 << (uint64(r.engine) & 63)
	}
	if flags != 0 {
		set = uint64(len(recs))
	}
	form, m := uint64(formRaw), int64(0)
	if math.Float64bits(start) == math.Float64bits(c.end) && math.Float64bits(end) == math.Float64bits(start+c.width) {
		form = formNext
	} else if i, ok := gridIndex(start, end, c.width); ok {
		form, m = formJump, i
	} else if i, ok := gridIndex(start, end, grid); ok {
		form, m, flags, c.width, c.idx = formJump, i, flags|escRegrid, grid, 0
	}
	if flags != 0 {
		b = append(binary.AppendUvarint(b, set<<2|formEscape), byte(flags|form))
	} else {
		b = binary.AppendUvarint(b, set<<2|form)
	}
	if flags&escRegrid != 0 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.width))
	}
	switch form {
	case formJump:
		b, c.idx = binary.AppendVarint(b, m-c.idx), m
	case formRaw:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(start))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(end))
	}
	c.end, c.idx = end, c.idx+1
	for _, r := range recs {
		if flags&escListed != 0 {
			b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(r.engine)), uint64(r.worker))
		}
		v := math.Float64bits(r.busy)
		if s := slot(v); c.busy[s] == v {
			b = append(b, byte(s))
		} else {
			c.busy[s] = v
			b = binary.LittleEndian.AppendUint64(append(b, busySlots), v)
		}
	}
	return b
}

// winReader decodes a snapshot's window log in commit order, from window 0.
type winReader struct {
	chunks []*[logChunk]byte
	off    int64 // bytes read
	winCodec
}

// next decodes the next window: its bounds, and its compute records in
// recs[:0].
func (r *winReader) next(recs []compRec) (start, end float64, _ []compRec) {
	head, _ := binary.ReadUvarint(r)
	form, flags := head&3, uint64(0)
	if form == formEscape {
		f, _ := r.ReadByte()
		form, flags = uint64(f&3), uint64(f)
	}
	if flags&escRegrid != 0 {
		r.width, r.idx = math.Float64frombits(r.word()), 0
	}
	start, end = r.end, r.end+r.width
	switch form {
	case formJump:
		d, _ := binary.ReadVarint(r)
		r.idx += d
		start = gridStart(r.idx, r.width)
		end = start + r.width
	case formRaw:
		start, end = math.Float64frombits(r.word()), math.Float64frombits(r.word())
	}
	r.end, r.idx, recs = end, r.idx+1, recs[:0]
	for set := head >> 2; set != 0; {
		engine := uint64(bits.TrailingZeros64(set))
		worker := engine
		if flags&escListed != 0 {
			engine, _ = binary.ReadUvarint(r)
			worker, _ = binary.ReadUvarint(r)
			set--
		} else {
			set &= set - 1
		}
		var v uint64
		if s, _ := r.ReadByte(); s < busySlots {
			v = r.busy[s]
		} else {
			v = r.word()
			r.busy[slot(v)] = v
		}
		recs = append(recs, compRec{busy: math.Float64frombits(v), engine: int32(engine), worker: int32(worker)})
	}
	return start, end, recs
}

func (r *winReader) ReadByte() (byte, error) {
	b := r.chunks[r.off>>logShift][r.off&(logChunk-1)]
	r.off++
	return b, nil
}

func (r *winReader) word() uint64 {
	var v uint64
	for s := 0; s < 64; s += 8 {
		b, _ := r.ReadByte()
		v |= uint64(b) << s
	}
	return v
}

// attribution derives one window's straggler attribution from its compute
// records. CommitWindow and every reader run this one routine over the same
// stored float64s, in the same order, so what a reader derives is bit-equal
// to what the commit returned.
type attribution struct {
	// busy[w] holds worker w's max engine busy for the pass stamped in
	// mark[w]; gen counts passes and starts at 1, so zeroed slots are never
	// current. touched lists the window's active workers, ascending.
	busy    []float64
	mark    []int64
	gen     int64
	touched []int
}

// window attributes the window whose compute records are recs: the gating
// worker (-1 when idle), its busy seconds and its lead over the runner-up.
// Per-worker busy is the max over its engines — engines on one worker step
// concurrently, and the barrier is gated by the slowest; a tie goes to the
// lower worker. a.touched and a.busy describe the window until the next call.
func (a *attribution) window(recs []compRec) (worker int, busy, lag float64) {
	a.gen++
	touched, sorted := a.touched[:0], true
	for i := range recs {
		rec := &recs[i]
		w := int(rec.worker)
		if w >= len(a.busy) {
			a.busy = append(a.busy, make([]float64, w+1-len(a.busy))...)
			a.mark = append(a.mark, make([]int64, w+1-len(a.mark))...)
		}
		if a.mark[w] != a.gen {
			a.mark[w] = a.gen
			a.busy[w] = rec.busy
			sorted = sorted && (len(touched) == 0 || w > touched[len(touched)-1])
			touched = append(touched, w)
		} else if rec.busy > a.busy[w] {
			a.busy[w] = rec.busy
		}
	}
	a.touched = touched
	if len(touched) == 0 {
		return -1, 0, 0
	}
	if !sorted {
		sort.Ints(touched) // records are engine-ascending, so only an Assign disorders them
	}
	worker = -1
	critBusy, runnerUp := 0.0, 0.0
	for _, w := range touched {
		b := a.busy[w]
		if worker < 0 || b > critBusy {
			if worker >= 0 && critBusy > runnerUp {
				runnerUp = critBusy
			}
			worker, critBusy = w, b
		} else if b > runnerUp {
			runnerUp = b
		}
	}
	if len(touched) > 1 {
		lag = critBusy - runnerUp
	}
	return worker, critBusy, lag
}

// NewTimeline returns an empty cluster timeline.
func NewTimeline() *Timeline {
	return &Timeline{
		assign:   make(map[int]int),
		pendWall: make(map[int]float64),
	}
}

// Reset discards all spans, attribution, assignments and the announced grid —
// the recovery fallback replays a partial distributed run from time zero
// in-process, which announces its own grid, and the replay's timeline must not
// double-count the windows committed before the loss.
func (t *Timeline) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.assign)
	t.store = store{}
	clear(t.pendWall)
	clear(t.totals)
	t.critTotal = 0
}

// Regrid announces the window grid the next commits are cut on: windows
// lookahead wide, a start after idle time at Floor(t/lookahead)·lookahead.
// The log then stores such windows as grid indices, and any other window as it
// is. A nil timeline ignores it, as a run without tracing does.
func (t *Timeline) Regrid(lookahead float64) {
	if t != nil {
		t.mu.Lock()
		t.log.grid = lookahead
		t.mu.Unlock()
	}
}

// Assign maps engines onto a worker slot for attribution and track layout.
// Unassigned engines are their own worker (the in-process shape).
func (t *Timeline) Assign(engines []int, worker int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range engines {
		t.assign[e] = worker
	}
}

func (t *Timeline) workerOf(engine int) int {
	if len(t.assign) == 0 { // in-process shape: skip the map call on the hot path
		return engine
	}
	if w, ok := t.assign[engine]; ok {
		return w
	}
	return engine
}

// AddWall merges worker-measured wall-clock spans. Compute spans are held
// and folded into the matching engine's span at the next CommitWindow; all
// other kinds join the timeline directly (their virtual anchor is the window
// the worker measured them in).
func (t *Timeline) AddWall(spans []Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		if s.Kind == SpanCompute {
			t.pendWall[s.Engine] = s.Wall
			continue
		}
		t.extras.push(wallSpan{span: s, at: t.log.wins})
		t.nspans++
	}
}

// CommitWindow commits one executed window from its record: one compute span
// per active engine — an engine with charges or remote sends in the window —
// in ascending engine order (the canonical order), whose modeled Busy is the
// record's Cost; the rest of a compute span is the window's and derived on
// read. It folds in any pending wall measurements and updates the straggler
// attribution, which it returns — the one time the window's WindowStat is
// handed out.
func (t *Timeline) CommitWindow(w Window) WindowStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	recs := t.recs[:0]
	for e, busy := range w.Cost {
		if w.Charges[e] == 0 && w.Remote[e] == 0 {
			continue
		}
		if len(t.pendWall) > 0 {
			if wall, ok := t.pendWall[e]; ok {
				t.walls.push(wallRec{rec: t.log.comp + int64(len(recs)), wall: wall})
				delete(t.pendWall, e)
			}
		}
		recs = append(recs, compRec{busy: busy, engine: int32(e), worker: int32(t.workerOf(e))})
	}
	t.recs = recs
	// Any pending wall measurement without a matching span belongs to an
	// engine idle this window; drop it rather than mis-attributing later.
	clear(t.pendWall)

	var st WindowStat
	t.spill = t.log.push(w.Start, w.End, recs, t.spill)
	st.Worker, st.Busy, st.Lag = t.attr.window(recs)
	t.nspans += int64(len(recs))
	if st.Worker >= 0 {
		t.nspans += int64(len(t.attr.touched) - 1) // one barrier-wait per non-gating worker
		if st.Worker >= len(t.totals) {
			t.totals = append(t.totals, make([]workerTotal, st.Worker+1-len(t.totals))...)
		}
		t.totals[st.Worker].gated++
		t.totals[st.Worker].crit += st.Busy
		t.critTotal += st.Busy
	}
	return st
}

// Windows returns the number of committed windows.
func (t *Timeline) Windows() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.log.wins
}

// snapshot returns the store as of now, readable without the lock.
func (t *Timeline) snapshot() store {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.store
}

// each calls yield with every span in timeline order until yield returns
// false: per window its compute spans, engine-ascending, then the barrier-wait
// span of every worker that waited for the gating one; spans merged by AddWall
// sit before the window that was next to commit when they arrived.
func (s *store) each(yield func(*Span) bool) {
	var (
		attr    attribution
		rd      = winReader{chunks: s.log.chunks}
		recs    []compRec
		rec     int64 // ordinal of the next compute record
		x, wl   int64 // next extra, next wall record
		barrier = Span{Kind: SpanBarrier, Engine: -1}
	)
	for w := int64(0); ; w++ {
		for ; x < s.extras.n && s.extras.at(x).at == w; x++ {
			if !yield(&s.extras.at(x).span) {
				return
			}
		}
		if w == s.log.wins {
			return // the extras that arrived after the last window are out
		}
		sp := Span{Kind: SpanCompute, Window: w}
		sp.Start, sp.End, recs = rd.next(recs)
		for _, r := range recs {
			sp.Worker, sp.Engine, sp.Busy, sp.Wall = int(r.worker), int(r.engine), r.busy, 0
			if wl < s.walls.n && s.walls.at(wl).rec == rec {
				sp.Wall = s.walls.at(wl).wall
				wl++
			}
			rec++
			if !yield(&sp) {
				return
			}
		}
		gating, critBusy, _ := attr.window(recs)
		barrier.Window, barrier.Start, barrier.End = w, sp.Start, sp.End
		for _, wk := range attr.touched {
			if wk == gating {
				continue
			}
			barrier.Worker, barrier.Busy = wk, critBusy-attr.busy[wk]
			if !yield(&barrier) {
				return
			}
		}
	}
}

// Spans returns a copy of the merged timeline.
func (t *Timeline) Spans() []Span {
	s := t.snapshot()
	if s.nspans == 0 {
		return nil
	}
	out := make([]Span, 0, s.nspans)
	s.each(func(sp *Span) bool {
		out = append(out, *sp)
		return true
	})
	return out
}

// Health returns the per-worker straggler attribution, sorted by worker.
func (t *Timeline) Health() []WorkerHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]WorkerHealth, 0, len(t.totals))
	for w, tot := range t.totals {
		if tot.gated == 0 {
			continue
		}
		h := WorkerHealth{Worker: w, GatedWindows: tot.gated, CriticalPath: tot.crit}
		if t.critTotal > 0 {
			h.Share = tot.crit / t.critTotal
		}
		out = append(out, h)
	}
	return out
}

// Summary renders the attribution as the one-clause verdict an operator reads
// first — the worker that held the most critical path, the windows it gated
// and its share — or "" when no window had an active engine.
func (t *Timeline) Summary() string {
	var worst WorkerHealth
	var gated int64
	for _, h := range t.Health() {
		gated += h.GatedWindows
		if h.CriticalPath > worst.CriticalPath {
			worst = h
		}
	}
	if worst.CriticalPath == 0 {
		return ""
	}
	return fmt.Sprintf("straggler: worker %d gated %d/%d window(s), %.0f%% critical path",
		worst.Worker, worst.GatedWindows, gated, 100*worst.Share)
}

// CanonicalJSON renders the deterministic projection of the timeline: the
// compute spans' virtual-time and modeled fields only, in commit order. The
// worker track, barrier-wait derivation and every wall-clock measurement are
// excluded — they reflect the deployment shape, not the simulation — so the
// bytes are identical across in-process, loopback and TCP executions,
// mirroring dist.ResultJSON.
func (t *Timeline) CanonicalJSON() []byte {
	var b []byte
	s := t.snapshot()
	s.each(func(sp *Span) bool {
		if sp.Kind != SpanCompute {
			return true
		}
		b = append(b, `{"window":`...)
		b = strconv.AppendInt(b, sp.Window, 10)
		b = append(b, `,"engine":`...)
		b = strconv.AppendInt(b, int64(sp.Engine), 10)
		b = append(b, `,"start":`...)
		b = strconv.AppendFloat(b, sp.Start, 'g', -1, 64)
		b = append(b, `,"end":`...)
		b = strconv.AppendFloat(b, sp.End, 'g', -1, 64)
		b = append(b, `,"busy":`...)
		b = strconv.AppendFloat(b, sp.Busy, 'g', -1, 64)
		b = append(b, "}\n"...)
		return true
	})
	return b
}

// WriteTraceEvents renders the timeline as Chrome trace_event JSON — load
// the file in Perfetto (ui.perfetto.dev) or chrome://tracing. One process
// per worker, one thread per engine (tid 0 carries worker-level spans). The
// time axis is virtual microseconds; compute and barrier-wait durations are
// modeled busy seconds, wire/migrate durations are measured wall
// seconds, and each event's args carry the window index and wall time. The
// document streams to w as it renders; the first write error is returned.
func (t *Timeline) WriteTraceEvents(w io.Writer) error {
	s := t.snapshot()
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	// emit writes one event; false once the writer has failed (bufio keeps
	// its first error and Flush returns it).
	emit := func(line []byte) bool {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		_, err := bw.Write(line)
		return err == nil
	}

	// Metadata: name each worker track and engine thread, sorted for
	// deterministic output.
	type track struct{ worker, engine int }
	seen := map[track]bool{}
	var tracks []track
	s.each(func(sp *Span) bool {
		if tr := (track{sp.Worker, sp.Engine}); !seen[tr] {
			seen[tr] = true
			tracks = append(tracks, tr)
		}
		return true
	})
	slices.SortFunc(tracks, func(a, b track) int {
		return cmp.Or(cmp.Compare(a.worker, b.worker), cmp.Compare(a.engine, b.engine))
	})
	var line []byte
	lastWorker := -1
	for _, tr := range tracks {
		if tr.worker != lastWorker {
			lastWorker = tr.worker
			line = fmt.Appendf(line[:0], `{"ph":"M","name":"process_name","pid":%d,"args":{"name":"worker %d"}}`, tr.worker, tr.worker)
			emit(line)
		}
		name := "worker"
		if tr.engine >= 0 {
			name = "engine " + strconv.Itoa(tr.engine)
		}
		line = fmt.Appendf(line[:0], `{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":"%s"}}`, tr.worker, tr.engine+1, name)
		emit(line)
	}

	const usec = 1e6
	s.each(func(sp *Span) bool {
		ts, dur := sp.Start*usec, sp.Busy*usec
		switch sp.Kind {
		case SpanWireSend, SpanWireRecv, SpanMigrate:
			dur = sp.Wall * usec
		}
		line = line[:0]
		line = append(line, `{"ph":"X","cat":"massf","name":"`...)
		line = append(line, sp.Kind.String()...)
		line = append(line, `","pid":`...)
		line = strconv.AppendInt(line, int64(sp.Worker), 10)
		line = append(line, `,"tid":`...)
		line = strconv.AppendInt(line, int64(sp.Engine+1), 10)
		line = append(line, `,"ts":`...)
		line = appendFloat(line, ts)
		line = append(line, `,"dur":`...)
		line = appendFloat(line, dur)
		line = append(line, `,"args":{"window":`...)
		line = strconv.AppendInt(line, sp.Window, 10)
		line = append(line, `,"wall_ms":`...)
		line = appendFloat(line, sp.Wall*1e3)
		line = append(line, `}}`...)
		return emit(line)
	})
	bw.WriteString(`]}`)
	return bw.Flush()
}
