package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// windowOf is the window record whose commit yields exactly the given compute
// spans (ascending engines, the window's own bounds): each span's engine is
// active — alternately by charges and by remote sends, the two halves of the
// activity rule — at its Busy as Cost; every other engine is idle at a cost
// the timeline must not look at.
func windowOf(start, end float64, spans []Span) Window {
	n := 1
	if len(spans) > 0 {
		n = spans[len(spans)-1].Engine + 2
	}
	w := Window{Start: start, End: end,
		Charges: make([]int64, n), Remote: make([]int64, n), Cost: make([]float64, n)}
	for e := range w.Cost {
		w.Cost[e] = -1
	}
	for i, sp := range spans {
		if i%2 == 0 {
			w.Charges[sp.Engine] = 1
		} else {
			w.Remote[sp.Engine] = 1
		}
		w.Cost[sp.Engine] = sp.Busy
	}
	return w
}

// commit is a test helper: one window with the given (engine, busy) pairs
// active.
func commit(t *Timeline, start, end float64, busy map[int]float64) WindowStat {
	var spans []Span
	for e := 0; ; e++ {
		if len(spans) == len(busy) {
			break
		}
		if b, ok := busy[e]; ok {
			spans = append(spans, Span{Kind: SpanCompute, Engine: e, Start: start, End: end, Busy: b})
		}
	}
	return t.CommitWindow(windowOf(start, end, spans))
}

func TestTimelineAttributionAndBarriers(t *testing.T) {
	tl := NewTimeline()
	tl.Assign([]int{0, 1}, 0)
	tl.Assign([]int{2, 3}, 1)

	// Worker 1 (engine 2) gates the first window by 3s, worker 0 the second.
	st := commit(tl, 0, 1, map[int]float64{0: 2, 1: 1, 2: 5, 3: 4})
	if st.Worker != 1 || st.Busy != 5 || st.Lag != 3 {
		t.Fatalf("window 0 stat = %+v, want worker 1 busy 5 lag 3", st)
	}
	st = commit(tl, 1, 2, map[int]float64{0: 6, 2: 2})
	if st.Worker != 0 || st.Busy != 6 || st.Lag != 4 {
		t.Fatalf("window 1 stat = %+v, want worker 0 busy 6 lag 4", st)
	}

	var barriers []Span
	for _, s := range tl.Spans() {
		if s.Kind == SpanBarrier {
			barriers = append(barriers, s)
		}
	}
	if len(barriers) != 2 {
		t.Fatalf("got %d barrier spans, want 2 (one non-gating worker per window)", len(barriers))
	}
	if b := barriers[0]; b.Worker != 0 || b.Window != 0 || b.Busy != 3 {
		t.Errorf("window 0 barrier = %+v, want worker 0 waiting 3s", b)
	}
	if b := barriers[1]; b.Worker != 1 || b.Window != 1 || b.Busy != 4 {
		t.Errorf("window 1 barrier = %+v, want worker 1 waiting 4s", b)
	}

	h := tl.Health()
	if len(h) != 2 {
		t.Fatalf("health rows = %d, want 2", len(h))
	}
	if h[0].Worker != 0 || h[0].GatedWindows != 1 || h[0].CriticalPath != 6 {
		t.Errorf("worker 0 health = %+v", h[0])
	}
	if h[1].Worker != 1 || h[1].GatedWindows != 1 || h[1].CriticalPath != 5 {
		t.Errorf("worker 1 health = %+v", h[1])
	}
	if got := h[0].Share + h[1].Share; math.Abs(got-1) > 1e-12 {
		t.Errorf("shares sum to %g, want 1", got)
	}
	if math.Abs(h[0].Share-6.0/11) > 1e-12 {
		t.Errorf("worker 0 share = %g, want 6/11", h[0].Share)
	}
}

func TestTimelineTieGoesToLowerWorker(t *testing.T) {
	tl := NewTimeline()
	tl.Assign([]int{0}, 0)
	tl.Assign([]int{1}, 1)
	st := commit(tl, 0, 1, map[int]float64{0: 3, 1: 3})
	if st.Worker != 0 {
		t.Fatalf("tied window attributed to worker %d, want 0 (lower id)", st.Worker)
	}
	if st.Lag != 0 {
		t.Fatalf("tied window lag = %g, want 0", st.Lag)
	}
}

func TestTimelineUnassignedEnginesAreTheirOwnWorker(t *testing.T) {
	tl := NewTimeline()
	commit(tl, 0, 1, map[int]float64{0: 1, 1: 2})
	for _, s := range tl.Spans() {
		if s.Kind == SpanCompute && s.Worker != s.Engine {
			t.Fatalf("in-process span %+v: worker should equal engine", s)
		}
	}
	// Only gating workers get health rows; engine 1 gated the sole window.
	if h := tl.Health(); len(h) != 1 || h[0].Worker != 1 || h[0].GatedWindows != 1 {
		t.Fatalf("in-process health = %+v, want only engine 1 gating", h)
	}
}

func TestTimelineIdleWindow(t *testing.T) {
	tl := NewTimeline()
	st := tl.CommitWindow(windowOf(0, 1, nil))
	if st.Worker != -1 || st.Busy != 0 || st.Lag != 0 {
		t.Fatalf("idle window stat = %+v, want worker -1", st)
	}
	if n := len(tl.Spans()); n != 0 {
		t.Fatalf("idle window produced %d spans", n)
	}
}

func TestTimelineWallFolding(t *testing.T) {
	tl := NewTimeline()
	tl.Assign([]int{0, 1}, 0)
	// A worker-measured compute wall time is held until the commit; a
	// worker-level span appends directly.
	tl.AddWall([]Span{
		{Kind: SpanCompute, Worker: 0, Engine: 1, Start: 0, End: 1, Wall: 0.25},
		{Kind: SpanMigrate, Worker: 0, Engine: -1, Start: 1, End: 1, Wall: 0.5},
	})
	commit(tl, 0, 1, map[int]float64{0: 1, 1: 2})

	var compute1, ckpt *Span
	for _, s := range tl.Spans() {
		s := s
		switch {
		case s.Kind == SpanCompute && s.Engine == 1:
			compute1 = &s
		case s.Kind == SpanMigrate:
			ckpt = &s
		}
	}
	if compute1 == nil || compute1.Wall != 0.25 {
		t.Fatalf("compute span for engine 1 = %+v, want folded wall 0.25", compute1)
	}
	if ckpt == nil || ckpt.Wall != 0.5 {
		t.Fatalf("migrate span = %+v, want wall 0.5", ckpt)
	}
	// A stale pending wall (engine idle this window) must not leak into the
	// next window's span.
	tl.AddWall([]Span{{Kind: SpanCompute, Worker: 0, Engine: 0, Start: 1, End: 2, Wall: 9}})
	commit(tl, 1, 2, map[int]float64{1: 1})
	commit(tl, 2, 3, map[int]float64{0: 1})
	for _, s := range tl.Spans() {
		if s.Kind == SpanCompute && s.Window == 2 && s.Wall != 0 {
			t.Fatalf("stale wall leaked into window 2: %+v", s)
		}
	}
}

func TestTimelineCanonicalJSONIgnoresDeployment(t *testing.T) {
	build := func(assign bool) *Timeline {
		tl := NewTimeline()
		if assign {
			tl.Assign([]int{0, 1}, 0)
			tl.Assign([]int{2}, 1)
			// Wall measurements arrive only in the distributed shape.
			tl.AddWall([]Span{{Kind: SpanCompute, Engine: 2, Wall: 0.1}})
		}
		commit(tl, 0, 0.5, map[int]float64{0: 1, 1: 2, 2: 3})
		commit(tl, 0.5, 1, map[int]float64{1: 4, 2: 1})
		return tl
	}
	dist := build(true).CanonicalJSON()
	inproc := build(false).CanonicalJSON()
	if !bytes.Equal(dist, inproc) {
		t.Fatalf("canonical projection differs across deployment shapes:\n%s\nvs\n%s", dist, inproc)
	}
	if !bytes.Contains(dist, []byte(`{"window":0,"engine":0,"start":0,"end":0.5,"busy":1}`)) {
		t.Fatalf("canonical form missing expected line:\n%s", dist)
	}
}

func TestTimelineReset(t *testing.T) {
	tl := NewTimeline()
	tl.Assign([]int{0}, 7)
	commit(tl, 0, 1, map[int]float64{0: 1})
	tl.Reset()
	if tl.Windows() != 0 || len(tl.Spans()) != 0 || len(tl.Health()) != 0 || tl.Summary() != "" {
		t.Fatal("reset left state behind")
	}
	// Assignments are gone too: engine 0 is its own worker again.
	commit(tl, 0, 1, map[int]float64{0: 1})
	if s := tl.Spans(); s[0].Worker != 0 {
		t.Fatalf("post-reset span worker = %d, want 0", s[0].Worker)
	}
}

// traceDoc mirrors the Chrome trace_event schema subset the export uses.
type traceDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Ph   string  `json:"ph"`
		Name string  `json:"name"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args map[string]any
	} `json:"traceEvents"`
}

func TestWriteTraceEventsIsValidTraceEventJSON(t *testing.T) {
	tl := NewTimeline()
	tl.Assign([]int{0, 1}, 0)
	tl.Assign([]int{2}, 1)
	tl.AddWall([]Span{{Kind: SpanWireRecv, Worker: 1, Engine: -1, Start: 0, End: 1, Wall: 0.002}})
	commit(tl, 0, 1, map[int]float64{0: 1, 1: 2, 2: 5})

	var buf bytes.Buffer
	if err := tl.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph+"/"+ev.Name]++
		if ev.Ph == "X" && ev.Name == "compute" && ev.Pid == 1 {
			if ev.Tid != 3 { // engine 2 renders on tid engine+1
				t.Errorf("worker 1 compute span on tid %d, want 3", ev.Tid)
			}
			if ev.Ts != 0 || ev.Dur != 5e6 {
				t.Errorf("compute span ts/dur = %g/%g, want 0/5e6 virtual µs", ev.Ts, ev.Dur)
			}
		}
	}
	if counts["M/process_name"] != 2 {
		t.Errorf("process_name metadata = %d, want 2 workers", counts["M/process_name"])
	}
	if counts["X/compute"] != 3 || counts["X/barrier-wait"] != 1 || counts["X/wire-recv"] != 1 {
		t.Errorf("event counts = %v, want 3 compute, 1 barrier-wait, 1 wire-recv", counts)
	}
}

// timelineAPI is the surface the reference and the store are compared on,
// beside CommitWindow: the store commits a window record, the reference the
// compute spans that record stands for (script.commit).
type timelineAPI interface {
	Reset()
	Assign(engines []int, worker int)
	AddWall(spans []Span)
	Windows() int64
	Spans() []Span
	Health() []WorkerHealth
	CanonicalJSON() []byte
	WriteTraceEvents(w io.Writer) error
}

// script drives a timeline and its reference through one seeded sequence of
// calls. Committed spans follow the reference CommitWindow's contract: compute
// kind, ascending engines, the window's own bounds.
type script struct {
	t       *testing.T
	rng     *rand.Rand
	got     *Timeline
	ref     *timelineReference
	engines int
	noReset bool
	now     float64
	width   float64   // the current window width; Reset keeps it
	pool    []float64 // busy values the script keeps coming back to
}

func (s *script) both(f func(tl timelineAPI)) { f(s.got); f(s.ref) }

func (s *script) assign() {
	engines := s.rng.Perm(s.engines)[:1+s.rng.Intn(s.engines)]
	worker := s.rng.Intn(4)
	s.both(func(tl timelineAPI) { tl.Assign(engines, worker) })
}

// addWall merges 1–4 wall spans of any kind: compute walls for engines that
// may be idle in the next window (stale) or named twice (the later wins),
// worker-level spans with arbitrary anchors.
func (s *script) addWall() {
	spans := make([]Span, 1+s.rng.Intn(4))
	for i := range spans {
		sp := Span{Kind: SpanKind(s.rng.Intn(int(SpanMigrate) + 1)), Wall: s.rng.Float64()}
		if s.rng.Intn(2) == 0 {
			sp.Kind = SpanCompute
		}
		if sp.Kind == SpanCompute {
			sp.Engine = s.rng.Intn(s.engines)
		} else {
			sp.Worker, sp.Engine = s.rng.Intn(4), s.rng.Intn(3)-1
			sp.Window, sp.Start, sp.End = s.rng.Int63n(9), s.now-s.rng.Float64(), s.now
		}
		spans[i] = sp
	}
	s.both(func(tl timelineAPI) { tl.AddWall(spans) })
}

// commit commits one window: idle, one engine, or up to every engine active,
// at busy values that are tied, drawn from the script's small pool, or fresh.
// Most windows start where the last one ended and last the current width,
// which changes now and then — mostly announced by Regrid, as a kernel run
// announces its grids, sometimes not. Some start after a gap, most of those
// at the grid's Floor(t/width)·width, as when the kernel skips idle time; and
// some end off the width.
func (s *script) commit() {
	if s.pool == nil {
		s.pool = []float64{s.rng.Float64(), s.rng.Float64(), s.rng.Float64(), 0.25, 1e-4}
	}
	if s.width == 0 || s.rng.Intn(64) == 0 {
		s.width = 0.001 + s.rng.Float64()
		if s.rng.Intn(4) != 0 {
			s.got.Regrid(s.width)
		}
	}
	if s.rng.Intn(8) == 0 {
		s.now += s.rng.Float64()
		if s.rng.Intn(4) != 0 {
			s.now = math.Floor(s.now/s.width) * s.width
		}
	}
	start, end := s.now, s.now+s.width
	if s.rng.Intn(16) == 0 {
		end = s.now + 0.001 + s.rng.Float64()
	}
	s.now = end
	var active int
	switch s.rng.Intn(6) {
	case 0: // idle
	case 1:
		active = 1
	default:
		active = 1 + s.rng.Intn(s.engines)
	}
	source := s.rng.Intn(3)
	var spans []Span
	for e := 0; e < s.engines && active > 0; e++ {
		if s.rng.Intn(s.engines-e) >= active {
			continue
		}
		active--
		var busy float64
		switch source {
		case 0: // tied
			busy = float64(s.rng.Intn(3)) / 2 // 0 included: active yet free
		case 1:
			busy = s.pool[s.rng.Intn(len(s.pool))]
		default:
			busy = s.rng.Float64()
		}
		spans = append(spans, Span{Kind: SpanCompute, Engine: e, Start: start, End: end, Busy: busy})
	}
	// The returned attribution is the only one the window ever gets.
	got, want := s.got.CommitWindow(windowOf(start, end, spans)), s.ref.CommitWindow(start, end, spans)
	if got != want {
		s.t.Fatalf("CommitWindow = %+v, reference %+v", got, want)
	}
}

func (s *script) step() {
	switch n := s.rng.Intn(20); {
	case n == 0 && !s.noReset:
		s.both(func(tl timelineAPI) { tl.Reset() })
		if s.rng.Intn(2) == 0 {
			s.got.Regrid(s.width) // a run after a Reset announces its grid again
		}
	case n == 1:
		s.assign()
	case n < 5:
		s.addWall()
	default:
		s.commit()
	}
}

// check compares everything a timeline can be asked.
func (s *script) check() {
	t := s.t
	t.Helper()
	if got, want := s.got.Windows(), s.ref.Windows(); got != want {
		t.Fatalf("Windows = %d, reference %d", got, want)
	}
	got, want := s.got.Spans(), s.ref.Spans()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("span %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(got, want) { // lengths, and nil against empty
		t.Fatalf("Spans returned %d spans (nil: %t), reference %d (nil: %t)", len(got), got == nil, len(want), want == nil)
	}
	if got, want := s.got.Health(), s.ref.Health(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Health = %+v, reference %+v", got, want)
	}
	sameBytes(t, "CanonicalJSON", s.got.CanonicalJSON(), s.ref.CanonicalJSON())
	var gotDoc, wantDoc bytes.Buffer
	if err := s.got.WriteTraceEvents(&gotDoc); err != nil {
		t.Fatal(err)
	}
	if err := s.ref.WriteTraceEvents(&wantDoc); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "WriteTraceEvents", gotDoc.Bytes(), wantDoc.Bytes())
}

// sameBytes fails with the neighbourhood of the first differing byte.
func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	around := func(b []byte) []byte { return b[max(0, i-80):min(len(b), i+80)] }
	t.Fatalf("%s differs from the reference at byte %d (%d bytes against %d):\n…%s…\nvs\n…%s…",
		what, i, len(got), len(want), around(got), around(want))
}

// TestTimelineMatchesReference holds the derived store to the flat one it
// replaced: 600 short scripts compared in full after every step, and four
// long ones without resets, compared in full every 97th or 997th step — two of
// thousands of few-engine windows, so every chunked sequence crosses chunk
// boundaries, two of 300-engine windows, whose records often straddle them.
// Each long script must have written a record across a log chunk boundary and
// one of each case of the codec: a window that starts where the previous one
// ended, one at a grid index after a gap, one that announces a new width, one
// stored raw; a busy table hit, miss and eviction; and active windows with
// their engines in the head's mask and listed. The 300-engine scripts, and
// only they, must have listed engines past the mask.
func TestTimelineMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &script{t: t, rng: rng, got: NewTimeline(), ref: newTimelineReference(), engines: 1 + rng.Intn(12)}
		if seed%2 == 0 {
			s.assign() // half the scripts start in the distributed shape
		}
		for step := 0; step < 40; step++ {
			s.step()
			s.check()
		}
	}
	for seed, long := range []struct{ engines, steps, every int }{{3, 12000, 997}, {2, 12000, 997}, {300, 500, 97}, {300, 500, 97}} {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		s := &script{t: t, rng: rng, got: NewTimeline(), ref: newTimelineReference(), engines: long.engines, noReset: true}
		if seed%2 == 0 {
			s.assign()
		}
		for step := 0; step < long.steps; step++ {
			s.step()
			if step%long.every == 0 {
				s.check()
			}
		}
		s.check()
		st := &s.got.store
		var seen struct{ straddled, next, jumps, regrids, raw, hits, misses, evictions, masked, listed int }
		var (
			rd    = &winReader{chunks: st.log.chunks}
			table [busySlots]uint64 // the busy table, replayed from the decoded values
			recs  []compRec
			past  int // windows with an engine past the mask
		)
		for w := int64(0); w < st.log.wins; w++ {
			from := rd.off
			hd := &winReader{chunks: st.log.chunks, off: from}
			head, _ := binary.ReadUvarint(hd)
			form, flags := head&3, uint64(0)
			if form == formEscape {
				f, _ := hd.ReadByte()
				form, flags = uint64(f&3), uint64(f)
			}
			_, _, recs = rd.next(recs)
			if from>>logShift != (rd.off-1)>>logShift {
				seen.straddled++
			}
			switch {
			case flags&escRegrid != 0:
				seen.regrids++
			case form == formNext:
				seen.next++
			case form == formJump:
				seen.jumps++
			default:
				seen.raw++
			}
			if len(recs) > 0 && flags&escListed == 0 {
				seen.masked++
			} else if len(recs) > 0 {
				seen.listed++
			}
			if len(recs) > 0 && recs[len(recs)-1].engine >= maskBits {
				past++
			}
			for _, r := range recs {
				bits := math.Float64bits(r.busy)
				if i := slot(bits); table[i] == bits {
					seen.hits++
				} else {
					seen.misses++
					if table[i] != 0 {
						seen.evictions++
					}
					table[i] = bits
				}
			}
		}
		if rd.off != st.log.n {
			t.Fatalf("long script %d: decoding %d windows read %d of the log's %d bytes", seed, st.log.wins, rd.off, st.log.n)
		}
		if table != rd.busy {
			t.Fatalf("long script %d: the reader's busy table is not the one its values replay to", seed)
		}
		for v, i := reflect.ValueOf(seen), 0; i < v.NumField(); i++ {
			if v.Field(i).Int() == 0 {
				t.Fatalf("long script %d wrote %d B in %d chunks and saw %+v: want some of each", seed, st.log.n, len(st.log.chunks), seen)
			}
		}
		if (past > 0) != (long.engines > maskBits) {
			t.Fatalf("long script %d of %d engines listed engines past the mask in %d windows", seed, long.engines, past)
		}
		if long.engines < 10 && (st.walls.n <= chunkLen || st.extras.n <= chunkLen) {
			t.Fatalf("long script %d stored %d walls, %d extras: each must outgrow one %d-record chunk",
				seed, st.walls.n, st.extras.n, chunkLen)
		}
	}
}

// TestTimelineBytesPerWindow is the storage cost gate: a fresh timeline fed
// 100 000 windows of 1–4 engines (1–5 on the grid row) may write a budget per
// compute record, per window and per jump to its log, plus 64 B for a run's
// first announced width and first busy misses, and allocate that budget in
// whole log chunks plus one chunk of slack for the chunk pointer slice and the
// writer's scratch. Contiguous windows on an announced grid whose busy values
// repeat get 1 B per record and 1 B per window. Grid-shaped ones — a jump of
// 1–17 windows to Floor(t/L)·L after every third, a Regrid to a new L
// half-way — get 1 B more per jump. Hostile ones — each after a gap, at a new
// width, with busy values never seen before — get 9 B and 17 B, what the
// format stores raw. No WindowStat is kept — the commit returns it once, and
// 32 B per window alone would break the budget — and a commit that opens no
// chunk allocates nothing.
func TestTimelineBytesPerWindow(t *testing.T) {
	const windows = 100_000
	spans := make([]Span, 5)
	for e := range spans {
		spans[e] = Span{Kind: SpanCompute, Engine: e, Busy: float64(e + 1)}
	}
	full := windowOf(0, 1, spans)
	for _, row := range []struct {
		name                    string
		perRec, perWin, perJump int
	}{{"repeating", 1, 1, 0}, {"grid", 1, 1, 1}, {"hostile", 9, 17, 0}} {
		cost := append([]float64(nil), full.Cost...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tl := NewTimeline()
		var records, jumps int
		end, width := 0.0, 1.0
		if row.name != "hostile" {
			tl.Regrid(width)
		}
		for w := 0; w < windows; w++ {
			n := 1 + w%4
			start := end
			switch row.name {
			case "grid":
				n = 1 + w%5
				if w == windows/2 {
					width = 0.37
					tl.Regrid(width)
				}
				if w%3 == 2 {
					start = math.Floor((end+float64(1+w%17)*width+width/2)/width) * width
					jumps++
				}
			case "hostile":
				start, width = float64(2*w), 1+float64(w)/windows
				for e := range n {
					cost[e] = float64(records + e)
				}
			}
			end = start + width
			records += n
			tl.CommitWindow(Window{Start: start, End: end, Charges: full.Charges[:n], Remote: full.Remote[:n], Cost: cost[:n]})
		}
		runtime.ReadMemStats(&after)
		grew := after.TotalAlloc - before.TotalAlloc
		logBudget := int64(row.perRec*records + row.perWin*windows + row.perJump*jumps + 64)
		budget := uint64((logBudget+logChunk-1)/logChunk*logChunk + logChunk)
		if tl.log.n > logBudget || grew > budget {
			t.Errorf("%s: %d windows, %d records, %d jumps wrote a %d B log and allocated %d B, budgets %d B and %d B",
				row.name, windows, records, jumps, tl.log.n, grew, logBudget, budget)
		}
		if got := tl.Windows(); got != windows {
			t.Fatalf("%s: committed %d windows, want %d", row.name, got, windows)
		}
	}

	tl := NewTimeline()
	tl.CommitWindow(full) // opens the chunks, sizes the scratch
	if allocs := testing.AllocsPerRun(200, func() { tl.CommitWindow(full) }); allocs != 0 {
		t.Errorf("CommitWindow inside a chunk allocates %.1f times, want 0", allocs)
	}
}

// FuzzWindowLog round-trips arbitrary window sequences through the log's
// writer and a fresh reader, which must return every bound, engine, worker and
// busy value bit for bit. The input is read as windows. A control byte's low
// two bits place the window: 0 where the last one ended, one width L long; 1
// on the grid of width L at a signed byte's distance from the index after the
// last grid window; 2 at two raw bounds; 3 on a new grid, whose raw L is
// announced, at a signed byte's index. Its bit 5 draws a raw L first without
// announcing it, and bits 2–4 say how many engines (0–7) are active; per
// engine, a byte spaces it from the last (by up to 63·2²¹, so ids pass the
// head's mask and 128), a byte picks its worker (itself, or a small signed
// number), and a byte picks its busy value from awkward bit patterns or raw.
// Raw floats are 8 little-endian bytes, so any bit pattern — NaN payloads,
// −0, subnormals — can be a bound, a width or a busy value.
func FuzzWindowLog(f *testing.F) {
	awkward := []uint64{
		0, 1 << 63, 1, 1<<52 - 1, // ±0, the smallest and largest subnormal
		0x7ff8000000000001, 0x7ff0000000000001, 0xfff8dead0000beef, // quiet, signalling, negative NaNs
		0x7ff0000000000000, 0xfff0000000000000, math.Float64bits(1e-4),
	}
	le := binary.LittleEndian.AppendUint64
	var seed []byte
	for i, bits := range awkward {
		seed = append(seed, 2|7<<2) // raw bounds, 7 engines
		seed = le(le(seed, bits), awkward[(i+1)%len(awkward)])
		for e := range 7 {
			seed = append(seed, byte(e)<<6|byte(i), byte(e+i), byte(e+i))
		}
		seed = append(seed, 3|2<<2) // a new grid of an awkward width, 2 engines, the second one's busy raw
		seed = append(le(seed, bits), byte(i), 0, 1, 3, 0, 1, 0x80)
		seed = le(seed, bits)
	}
	f.Add(seed)
	// Grid jumps and a width change mid-log, as a kernel run cuts them.
	seed = append(le([]byte{3 | 2<<2}, math.Float64bits(1e-3)), 5, 0, 1, 0, 1, 1, 1)
	for d := range 18 {
		seed = append(seed, 0|1<<2, 1, 1, 2, 1|1<<2, byte(d), 0, 1, 2)
	}
	seed = append(le(append(seed, 3|1<<2), math.Float64bits(0.37)), 0x7f, 0, 1, 3)
	seed = append(le(append(seed, 1<<5|1<<2), math.Float64bits(0.5)), 0, 1, 3) // an unannounced width
	f.Add(append(seed, 1|1<<2, 0xfe, 0, 1, 4))
	// Bounds off the announced grid: the raw fallback.
	seed = append(le([]byte{3 | 1<<2}, math.Float64bits(1e-3)), 1, 0, 1, 0)
	seed = le(le(append(seed, 2|1<<2), math.Float64bits(0.1)), math.Float64bits(0.35))
	f.Add(append(seed, 0, 1, 0, 0|1<<2, 0, 1, 0))
	// Engines at and past what the head's mask holds, and past 128 (61, 62,
	// 63, 127, 128, 385), then a window with no active engine.
	seed = append(le([]byte{3 | 6<<2}, math.Float64bits(1)), 0)
	for _, g := range []byte{61, 0, 0, 63, 0, 0x40 | 2} {
		seed = append(seed, g, 1, g)
	}
	f.Add(append(seed, 0|0<<2, 0|2<<2, 60, 1, 0, 0, 1, 1))
	// Workers other than the engines, as a distributed run assigns them.
	seed = append(le([]byte{3 | 3<<2}, math.Float64bits(0.25)), 9, 0, 2, 0, 0, 0xfe, 1, 0, 4, 2)
	f.Add(append(seed, 0|3<<2, 0, 2, 0, 0, 0xfe, 1, 0, 4, 2))
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 64, 1 << 10} {
		b := make([]byte, n)
		rng.Read(b)
		f.Add(b)
	}
	type window struct {
		start, end float64
		recs       []compRec
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		raw := func() float64 {
			var bits uint64
			for s := 0; s < 64; s += 8 {
				bits |= uint64(next()) << s
			}
			return math.Float64frombits(bits)
		}
		var (
			log        winLog
			spill      []byte
			wins       []window
			prevEnd, L float64
			idx        int64
		)
		for len(data) > 0 {
			c := next()
			if c&(1<<5) != 0 {
				L = raw()
			}
			var w window
			switch c & 3 {
			case 0:
				w.start = prevEnd
			case 2:
				w.start, w.end = raw(), raw()
			case 3:
				L, idx = raw(), 0
				log.grid = L
				fallthrough
			case 1:
				idx += int64(int8(next()))
				w.start = float64(idx) * L
			}
			if c&3 != 2 {
				w.end = w.start + L
			}
			prevEnd, idx = w.end, idx+1
			engine := int32(-1)
			for i := c >> 2 & 7; i > 0; i-- {
				g := next()
				engine += 1 + int32(g&0x3f)<<(7*(g>>6))
				r := compRec{engine: engine, worker: engine}
				if b := next(); b&1 == 0 {
					r.worker = int32(int8(b)) >> 1
				}
				b := next()
				bits := awkward[int(b)%len(awkward)]
				if b >= 0x80 {
					bits = math.Float64bits(raw())
				}
				r.busy = math.Float64frombits(bits)
				w.recs = append(w.recs, r)
			}
			spill = log.push(w.start, w.end, w.recs, spill)
			wins = append(wins, w)
		}
		rd := winReader{chunks: log.chunks}
		var recs []compRec
		for i, w := range wins {
			var start, end float64
			start, end, recs = rd.next(recs)
			if math.Float64bits(start) != math.Float64bits(w.start) || math.Float64bits(end) != math.Float64bits(w.end) {
				t.Fatalf("window %d decoded as [%x, %x), written as [%x, %x)", i,
					math.Float64bits(start), math.Float64bits(end), math.Float64bits(w.start), math.Float64bits(w.end))
			}
			if len(recs) != len(w.recs) {
				t.Fatalf("window %d decoded %d records, written %d", i, len(recs), len(w.recs))
			}
			for j, r := range recs {
				if want := w.recs[j]; r.engine != want.engine || r.worker != want.worker || math.Float64bits(r.busy) != math.Float64bits(want.busy) {
					t.Fatalf("window %d record %d decoded as {%d %d %x}, written as {%d %d %x}", i, j,
						r.engine, r.worker, math.Float64bits(r.busy), want.engine, want.worker, math.Float64bits(want.busy))
				}
			}
		}
		if rd.off != log.n || int64(len(wins)) != log.wins {
			t.Fatalf("decoding %d windows read %d of the log's %d bytes", log.wins, rd.off, log.n)
		}
	})
}

// BenchmarkCommitWindow measures the per-window cost of the timeline's write
// path: contiguous windows on an announced grid, of 5 engines, 4 of them
// active, as in TeraGrid.
func BenchmarkCommitWindow(b *testing.B) {
	spans := make([]Span, 5)
	for e := range spans {
		spans[e] = Span{Kind: SpanCompute, Engine: e, Busy: float64(e+1) * 1e-4}
	}
	w := windowOf(0, 0, spans)
	w.Charges[2], w.Remote[2] = 0, 0
	tl := NewTimeline()
	tl.Regrid(1e-3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Start, w.End = w.End, w.End+1e-3
		tl.CommitWindow(w)
	}
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct {
	limit, calls, failed int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if len(p) > w.limit {
		w.failed++
		n := w.limit
		w.limit = 0
		return n, errDiskFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestWriteTraceEventsReturnsWriteError: the export streams, so a writer that
// fails part-way must surface its error — and is not written to again.
func TestWriteTraceEventsReturnsWriteError(t *testing.T) {
	tl := NewTimeline()
	for w := 0; w < 5000; w++ {
		commit(tl, float64(w), float64(w+1), map[int]float64{0: 1, 1: 2})
	}
	var full bytes.Buffer
	if err := tl.WriteTraceEvents(&full); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 100, full.Len() / 2, full.Len() - 1} {
		w := &failingWriter{limit: limit}
		if err := tl.WriteTraceEvents(w); !errors.Is(err, errDiskFull) {
			t.Errorf("writer failing after %d of %d bytes: err = %v, want %v", limit, full.Len(), err, errDiskFull)
		}
		if w.failed != 1 {
			t.Errorf("writer failing after %d bytes saw %d failed writes, want 1", limit, w.failed)
		}
	}
	if w := (&failingWriter{limit: full.Len()}); tl.WriteTraceEvents(w) != nil || w.calls < 2 {
		t.Errorf("a %d-byte document should stream in several writes without error, got %d", full.Len(), w.calls)
	}
}

// TestTimelineConcurrentReaders: the coordinator commits while debug
// endpoints read. One goroutine commits (and resets half-way), four read
// through every accessor; each read must be a consistent prefix of the run.
// The writer holds back before the reset and before the end until reads have
// overlapped its commits. Run under -race.
func TestTimelineConcurrentReaders(t *testing.T) {
	const windows = 6000
	tl := NewTimeline()
	tl.Assign([]int{0, 1}, 0)
	tl.Assign([]int{2}, 1)
	busyOf := func(w int64, e int) float64 { return float64(w%7) + float64(e)/4 }

	done := make(chan struct{})
	var (
		wg    sync.WaitGroup
		reads atomic.Int64
	)
	awaitReads := func(n int64) {
		for target := reads.Load() + n; reads.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				reads.Add(1)
				switch i % 4 {
				case 0:
					var computes int64
					for _, s := range tl.Spans() {
						switch s.Kind {
						case SpanCompute:
							if s.Start != float64(s.Window) || s.Busy != busyOf(s.Window, s.Engine) {
								t.Errorf("torn compute span %+v", s)
								return
							}
							computes++
						case SpanBarrier:
							if s.Engine != -1 || s.Start != float64(s.Window) {
								t.Errorf("torn barrier span %+v", s)
								return
							}
						}
					}
					if computes%3 != 0 {
						t.Errorf("read %d compute spans: not whole windows of 3", computes)
						return
					}
				case 1:
					var total float64
					for _, h := range tl.Health() {
						total += h.Share
					}
					if total != 0 && math.Abs(total-1) > 1e-9 {
						t.Errorf("health shares sum to %g", total)
						return
					}
				case 2:
					if b := tl.CanonicalJSON(); bytes.Count(b, []byte("\n"))%3 != 0 {
						t.Error("canonical projection cut inside a window")
						return
					}
				case 3:
					var buf bytes.Buffer
					if err := tl.WriteTraceEvents(&buf); err != nil {
						t.Error(err)
						return
					}
					if !json.Valid(buf.Bytes()) {
						t.Error("trace export is not valid JSON")
						return
					}
				}
			}
		}(r)
	}
	spans := make([]Span, 3)
	for w := int64(0); w < windows; w++ {
		if w == windows/2 {
			awaitReads(8)
			tl.Reset()
			tl.Assign([]int{0, 1}, 0)
			tl.Assign([]int{2}, 1)
		}
		idx := w % (windows / 2)
		for e := range spans {
			spans[e] = Span{Kind: SpanCompute, Engine: e, Busy: busyOf(idx, e)}
		}
		if w%5 == 0 {
			tl.AddWall([]Span{
				{Kind: SpanCompute, Engine: 1, Wall: 0.5},
				{Kind: SpanWireSend, Worker: 1, Engine: -1, Window: idx, Start: float64(idx), Wall: 0.1},
			})
		}
		tl.CommitWindow(windowOf(float64(idx), float64(idx+1), spans))
	}
	awaitReads(8)
	close(done)
	wg.Wait()
	if got := tl.Windows(); got != windows/2 {
		t.Fatalf("timeline holds %d windows after the reset, want %d", got, windows/2)
	}
}

// timelineReference is the Timeline of commit bed0bbc, verbatim apart from
// its name and its DrainWindowStats cursor (gone from both; the WindowStat
// each commit returns is compared instead): every span materialized into one
// flat slice, committed as the compute spans the store now derives from a
// window record. It is the oracle TestTimelineMatchesReference holds the
// derived store to.
type timelineReference struct {
	mu      sync.Mutex
	assign  map[int]int // engine -> worker; engines absent map to themselves
	spans   []Span
	windows int64

	// pendWall holds worker-measured compute wall times awaiting the next
	// CommitWindow, keyed by engine; other wall spans append directly.
	pendWall map[int]float64

	gated     map[int]int64
	crit      map[int]float64
	critTotal float64

	// Per-commit scratch, reused so a window costs no allocations beyond the
	// amortized span append: busy[w] holds worker w's max engine busy for the
	// commit stamped in mark[w] (stamps start at 1, so zeroed slots are never
	// current), touched lists the workers active this commit.
	busy    []float64
	mark    []int64
	touched []int
}

// newTimelineReference returns an empty cluster timeline.
func newTimelineReference() *timelineReference {
	return &timelineReference{
		assign:   make(map[int]int),
		pendWall: make(map[int]float64),
		gated:    make(map[int]int64),
		crit:     make(map[int]float64),
	}
}

// Reset discards all spans, attribution and assignments — the recovery
// fallback replays a partial distributed run from time zero in-process, and
// the replay's timeline must not double-count the windows committed before
// the loss. Capacity is retained, so a reused timeline commits windows
// without re-paying the append growth.
func (t *timelineReference) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.assign)
	t.spans = t.spans[:0]
	t.windows = 0
	clear(t.pendWall)
	clear(t.gated)
	clear(t.crit)
	t.critTotal = 0
	// Stamps restart at 1 after a reset; stale marks from the previous run
	// would collide with them.
	for i := range t.mark {
		t.mark[i] = 0
	}
}

// Assign maps engines onto a worker slot for attribution and track layout.
// Unassigned engines are their own worker (the in-process shape).
func (t *timelineReference) Assign(engines []int, worker int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range engines {
		t.assign[e] = worker
	}
}

func (t *timelineReference) workerOf(engine int) int {
	if len(t.assign) == 0 { // in-process shape: skip the hash on the hot path
		return engine
	}
	if w, ok := t.assign[engine]; ok {
		return w
	}
	return engine
}

// AddWall merges worker-measured wall-clock spans. Compute spans are held
// and folded into the matching engine's span at the next CommitWindow; all
// other kinds append to the timeline directly (their virtual anchor is the
// window the worker measured them in).
func (t *timelineReference) AddWall(spans []Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		if s.Kind == SpanCompute {
			t.pendWall[s.Engine] = s.Wall
			continue
		}
		t.spans = append(t.spans, s)
	}
}

// CommitWindow appends one window's deterministic compute spans (Engine,
// Start, End and modeled Busy filled by the caller; Worker and Window are
// stamped here), folds in any pending wall measurements, derives the
// barrier-wait spans, and updates the straggler attribution. Spans must be
// in ascending engine order — the canonical order.
func (t *timelineReference) CommitWindow(start, end float64, spans []Span) WindowStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := t.windows
	t.windows++
	stamp := t.windows // idx+1: never the zero value of a fresh mark slot

	// Per-worker busy is the max over its engines: engines on one worker
	// step concurrently, and the barrier is gated by the slowest. The batch
	// is appended in one grow, then stamped in place.
	touched := t.touched[:0]
	base := len(t.spans)
	t.spans = append(t.spans, spans...)
	for i := base; i < len(t.spans); i++ {
		s := &t.spans[i]
		s.Window = idx
		w := t.workerOf(s.Engine)
		s.Worker = w
		if len(t.pendWall) > 0 {
			if wall, ok := t.pendWall[s.Engine]; ok {
				s.Wall = wall
				delete(t.pendWall, s.Engine)
			}
		}
		if w >= len(t.busy) {
			busy := make([]float64, w+1)
			copy(busy, t.busy)
			t.busy = busy
			mark := make([]int64, w+1)
			copy(mark, t.mark)
			t.mark = mark
		}
		if t.mark[w] != stamp {
			t.mark[w] = stamp
			t.busy[w] = s.Busy
			touched = append(touched, w)
		} else if s.Busy > t.busy[w] {
			t.busy[w] = s.Busy
		}
	}
	t.touched = touched
	if len(t.pendWall) > 0 {
		// Any pending wall measurement without a matching span belongs to an
		// engine idle this window; drop it rather than mis-attributing later.
		for e := range t.pendWall {
			delete(t.pendWall, e)
		}
	}

	st := WindowStat{Worker: -1}
	if len(touched) > 0 {
		if len(touched) > 1 {
			sort.Ints(touched) // near-sorted already: spans arrive engine-ascending
		}
		critBusy, runnerUp := 0.0, 0.0
		for _, w := range touched {
			b := t.busy[w]
			if st.Worker < 0 || b > critBusy {
				if st.Worker >= 0 && critBusy > runnerUp {
					runnerUp = critBusy
				}
				st.Worker, critBusy = w, b
			} else if b > runnerUp {
				runnerUp = b
			}
		}
		st.Busy = critBusy
		if len(touched) > 1 {
			st.Lag = critBusy - runnerUp
		}
		for _, w := range touched {
			if w == st.Worker {
				continue
			}
			t.spans = append(t.spans, Span{
				Kind: SpanBarrier, Worker: w, Engine: -1, Window: idx,
				Start: start, End: end, Busy: critBusy - t.busy[w],
			})
		}
		t.gated[st.Worker]++
		t.crit[st.Worker] += critBusy
		t.critTotal += critBusy
	}
	return st
}

// Windows returns the number of committed windows.
func (t *timelineReference) Windows() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.windows
}

// Spans returns a copy of the merged timeline.
func (t *timelineReference) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Health returns the per-worker straggler attribution, sorted by worker.
func (t *timelineReference) Health() []WorkerHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	workers := make([]int, 0, len(t.gated))
	for w := range t.gated {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	out := make([]WorkerHealth, len(workers))
	for i, w := range workers {
		h := WorkerHealth{Worker: w, GatedWindows: t.gated[w], CriticalPath: t.crit[w]}
		if t.critTotal > 0 {
			h.Share = t.crit[w] / t.critTotal
		}
		out[i] = h
	}
	return out
}

// CanonicalJSON renders the deterministic projection of the timeline: the
// compute spans' virtual-time and modeled fields only, in commit order. The
// worker track, barrier-wait derivation and every wall-clock measurement are
// excluded — they reflect the deployment shape, not the simulation — so the
// bytes are identical across in-process, loopback and TCP executions,
// mirroring dist.ResultJSON.
func (t *timelineReference) CanonicalJSON() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b []byte
	for _, s := range t.spans {
		if s.Kind != SpanCompute {
			continue
		}
		b = append(b, `{"window":`...)
		b = strconv.AppendInt(b, s.Window, 10)
		b = append(b, `,"engine":`...)
		b = strconv.AppendInt(b, int64(s.Engine), 10)
		b = append(b, `,"start":`...)
		b = strconv.AppendFloat(b, s.Start, 'g', -1, 64)
		b = append(b, `,"end":`...)
		b = strconv.AppendFloat(b, s.End, 'g', -1, 64)
		b = append(b, `,"busy":`...)
		b = strconv.AppendFloat(b, s.Busy, 'g', -1, 64)
		b = append(b, "}\n"...)
	}
	return b
}

// WriteTraceEvents renders the timeline as Chrome trace_event JSON — load
// the file in Perfetto (ui.perfetto.dev) or chrome://tracing. One process
// per worker, one thread per engine (tid 0 carries worker-level spans). The
// time axis is virtual microseconds; compute and barrier-wait durations are
// modeled busy seconds, wire/checkpoint/migrate durations are measured wall
// seconds, and each event's args carry the window index and wall time.
func (t *timelineReference) WriteTraceEvents(w io.Writer) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()

	var b []byte
	b = append(b, `{"displayTimeUnit":"ms","traceEvents":[`...)
	first := true
	emit := func(line []byte) {
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, line...)
	}

	// Metadata: name each worker track and engine thread, sorted for
	// deterministic output.
	type track struct{ worker, engine int }
	seen := map[track]bool{}
	var tracks []track
	for _, s := range spans {
		tr := track{s.Worker, s.Engine}
		if !seen[tr] {
			seen[tr] = true
			tracks = append(tracks, tr)
		}
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].worker != tracks[j].worker {
			return tracks[i].worker < tracks[j].worker
		}
		return tracks[i].engine < tracks[j].engine
	})
	var line []byte
	lastWorker := -1
	for _, tr := range tracks {
		if tr.worker != lastWorker {
			lastWorker = tr.worker
			line = line[:0]
			line = append(line, `{"ph":"M","name":"process_name","pid":`...)
			line = strconv.AppendInt(line, int64(tr.worker), 10)
			line = append(line, `,"args":{"name":"worker `...)
			line = strconv.AppendInt(line, int64(tr.worker), 10)
			line = append(line, `"}}`...)
			emit(line)
		}
		line = line[:0]
		line = append(line, `{"ph":"M","name":"thread_name","pid":`...)
		line = strconv.AppendInt(line, int64(tr.worker), 10)
		line = append(line, `,"tid":`...)
		line = strconv.AppendInt(line, int64(tr.engine+1), 10)
		line = append(line, `,"args":{"name":"`...)
		if tr.engine < 0 {
			line = append(line, `worker`...)
		} else {
			line = append(line, `engine `...)
			line = strconv.AppendInt(line, int64(tr.engine), 10)
		}
		line = append(line, `"}}`...)
		emit(line)
	}

	const usec = 1e6
	for _, s := range spans {
		ts, dur := s.Start*usec, s.Busy*usec
		switch s.Kind {
		case SpanWireSend, SpanWireRecv, SpanMigrate:
			dur = s.Wall * usec
		}
		line = line[:0]
		line = append(line, `{"ph":"X","cat":"massf","name":"`...)
		line = append(line, s.Kind.String()...)
		line = append(line, `","pid":`...)
		line = strconv.AppendInt(line, int64(s.Worker), 10)
		line = append(line, `,"tid":`...)
		line = strconv.AppendInt(line, int64(s.Engine+1), 10)
		line = append(line, `,"ts":`...)
		line = appendFloat(line, ts)
		line = append(line, `,"dur":`...)
		line = appendFloat(line, dur)
		line = append(line, `,"args":{"window":`...)
		line = strconv.AppendInt(line, s.Window, 10)
		line = append(line, `,"wall_ms":`...)
		line = appendFloat(line, s.Wall*1e3)
		line = append(line, `}}`...)
		emit(line)
	}
	b = append(b, `]}`...)
	_, err := w.Write(b)
	return err
}
