package obs

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func sampleWindow(i int64) Window {
	return Window{
		Index: i, Start: float64(i), End: float64(i) + 0.5,
		Events:  []int64{3, 1},
		Charges: []int64{30, 10},
		Remote:  []int64{2, 0},
		Queue:   []int64{5, 7},
	}
}

func TestTraceDeterministicBytes(t *testing.T) {
	emit := func() string {
		var buf bytes.Buffer
		tr := NewTrace(&buf)
		tr.RecordRun(RunMeta{LPs: 2, Lookahead: 1e-4})
		tr.RecordWindow(sampleWindow(0))
		tr.RecordEvent(Event{Kind: EventCheckpoint, Time: 10, LP: -1})
		tr.RecordWindow(sampleWindow(1))
		tr.RecordEvent(Event{Kind: EventMigration, Time: 10, LP: 1, Value: 4})
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := emit(), emit()
	if a != b {
		t.Fatalf("trace not deterministic:\n%s\nvs\n%s", a, b)
	}
	want := `{"type":"run","lps":2,"lookahead":0.0001,"resumed":false}`
	if !strings.HasPrefix(a, want+"\n") {
		t.Errorf("run line = %q, want prefix %q", a[:len(want)], want)
	}
	if !strings.Contains(a, `"kind":"migration","t":10,"lp":1,"value":4`) {
		t.Errorf("migration event missing from trace:\n%s", a)
	}
	if strings.Contains(a, "Wait") || strings.Contains(a, "wait") {
		t.Errorf("trace must not serialize wall-clock wait:\n%s", a)
	}
}

// errWriter fails after n bytes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	w.n -= len(p)
	return len(p), nil
}

func TestTraceDeferredWriteError(t *testing.T) {
	tr := NewTrace(&errWriter{n: 8})
	for i := int64(0); i < 1000; i++ {
		tr.RecordWindow(sampleWindow(i))
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("expected deferred write error")
	}
	if tr.Close() == nil {
		t.Fatal("Close lost the write error")
	}
}

func TestRunStatsAccumulation(t *testing.T) {
	s := NewRunStats(2)
	s.NoteSegment()
	s.NoteQueue([]int64{5, 7})
	s.NoteQueue([]int64{6, 2})
	s.NoteEvent(Event{Kind: EventCheckpoint, Time: 1, LP: -1})
	s.NoteEvent(Event{Kind: EventCrash, Time: 2, LP: 1, Value: 1.7})
	s.NoteEvent(Event{Kind: EventRollback, Time: 1, LP: 1, Value: 3})
	s.NoteEvent(Event{Kind: EventMigration, Time: 1, LP: 0, Value: 5})
	s.NoteSegment()
	s.NoteEvent(Event{Kind: EventResize, Time: 3, LP: -1, Value: 1})
	s.NoteClusterSize(2)
	s.NoteEvent(Event{Kind: EventJoin, Time: 4, LP: 1})
	s.NoteEvent(Event{Kind: EventDrain, Time: 4, LP: 0})
	s.NoteEvent(Event{Kind: EventHeartbeatMiss, Time: 5, LP: 1, Value: 2})
	s.Events, s.Charges, s.Remote = []int64{6, 6}, []int64{90, 30}, []int64{4, 0}

	if s.Segments != 2 {
		t.Errorf("Segments = %d, want 2", s.Segments)
	}
	if got := metrics.Sum(s.Events); got != 12 {
		t.Errorf("events sum to %d, want 12", got)
	}
	if got := metrics.Sum(s.Charges); got != 120 {
		t.Errorf("charges sum to %d, want 120", got)
	}
	if s.MaxQueue[0] != 6 || s.MaxQueue[1] != 7 {
		t.Errorf("MaxQueue = %v, want [6 7]", s.MaxQueue)
	}
	if s.Checkpoints != 1 || s.Crashes != 1 || s.Rollbacks != 1 {
		t.Errorf("lifecycle counts = %d/%d/%d, want 1/1/1", s.Checkpoints, s.Crashes, s.Rollbacks)
	}
	if s.ReplayedWindows != 3 {
		t.Errorf("ReplayedWindows = %d, want 3", s.ReplayedWindows)
	}
	if got := metrics.Sum(s.MigratedNodes); got != 5 {
		t.Errorf("migrations sum to %d, want 5", got)
	}
	if s.Resizes != 1 || s.PeakEngines != 2 || s.Joins[1] != 1 || s.Drains[0] != 1 || s.Kills[1] != 1 {
		t.Errorf("elastic counts: %d resizes, peak %d, joins %v, drains %v, kills %v",
			s.Resizes, s.PeakEngines, s.Joins, s.Drains, s.Kills)
	}
	if str := s.String(); !strings.Contains(str, "recovery:") || !strings.Contains(str, "elastic:") {
		t.Errorf("String() missing recovery or elastic section: %q", str)
	}

	var none *RunStats // a run without WithStats
	none.NoteSegment()
	none.NoteQueue([]int64{1})
	none.NoteEvent(Event{Kind: EventJoin, LP: 0})
	none.NoteClusterSize(3)
}

// windowCount is a Recorder that counts what reaches it.
type windowCount struct{ runs, windows, events int }

func (c *windowCount) RecordRun(RunMeta)   { c.runs++ }
func (c *windowCount) RecordWindow(Window) { c.windows++ }
func (c *windowCount) RecordEvent(Event)   { c.events++ }

func TestMulti(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils should be nil")
	}
	a, b := &windowCount{}, &windowCount{}
	if got := Multi(nil, a); got != Recorder(a) {
		t.Error("Multi with one non-nil should return it directly")
	}
	m := Multi(a, nil, b)
	m.RecordRun(RunMeta{LPs: 2})
	m.RecordWindow(sampleWindow(0))
	m.RecordEvent(Event{Kind: EventCheckpoint})
	if *a != (windowCount{1, 1, 1}) || *b != (windowCount{1, 1, 1}) {
		t.Errorf("Multi did not fan out to all recorders: %+v, %+v", *a, *b)
	}
}

// TestServeDebug: repeated runs in one process each start their own debug
// endpoint. Every server has a private mux, so a second ServeDebug must not
// panic on a duplicate handler, and both serve expvar and the pprof index.
func TestServeDebug(t *testing.T) {
	for i := 0; i < 2; i++ {
		srv, base, err := ServeDebug("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if code, body := getBody(t, base+"/debug/vars"); code != http.StatusOK ||
			!strings.Contains(body, `"cmdline"`) {
			t.Errorf("server %d expvar: status %d, body:\n%s", i, code, body)
		}
		if code, body := getBody(t, base+"/debug/pprof/"); code != http.StatusOK ||
			!strings.Contains(body, "goroutine") {
			t.Errorf("server %d pprof index: status %d, body:\n%s", i, code, body)
		}
	}
}

// BenchmarkTraceWindow measures the per-window cost of the JSONL tracer.
func BenchmarkTraceWindow(b *testing.B) {
	tr := NewTrace(io.Discard)
	w := sampleWindow(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Index = int64(i)
		tr.RecordWindow(w)
	}
	if err := tr.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMultiDispatch measures the fan-out overhead of a two-recorder
// chain.
func BenchmarkMultiDispatch(b *testing.B) {
	m := Multi(&windowCount{}, NewTrace(io.Discard))
	w := sampleWindow(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RecordWindow(w)
	}
}
