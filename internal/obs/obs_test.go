package obs

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
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
	if tr.Err() == nil {
		t.Fatal("Err() lost the write error")
	}
}

func TestRunStatsAccumulation(t *testing.T) {
	s := NewRunStats()
	s.RecordRun(RunMeta{LPs: 2, Lookahead: 1e-3})
	s.RecordWindow(sampleWindow(0))
	s.RecordWindow(sampleWindow(1))
	s.RecordEvent(Event{Kind: EventCheckpoint, Time: 1})
	s.RecordEvent(Event{Kind: EventCrash, Time: 2, LP: 1, Value: 1.7})
	s.RecordEvent(Event{Kind: EventRollback, Time: 1, LP: 1, Value: 3})
	s.RecordEvent(Event{Kind: EventMigration, Time: 1, LP: 0, Value: 5})
	s.RecordRun(RunMeta{LPs: 2, Lookahead: 1e-3, Resumed: true})
	s.RecordWindow(sampleWindow(1))

	if s.Segments != 2 {
		t.Errorf("Segments = %d, want 2", s.Segments)
	}
	if s.Windows != 3 {
		t.Errorf("Windows = %d, want 3", s.Windows)
	}
	if got := s.TotalEvents(); got != 12 {
		t.Errorf("TotalEvents = %d, want 12", got)
	}
	if got := s.TotalCharges(); got != 120 {
		t.Errorf("TotalCharges = %d, want 120", got)
	}
	if s.MaxQueue[1] != 7 {
		t.Errorf("MaxQueue[1] = %d, want 7", s.MaxQueue[1])
	}
	if s.Checkpoints != 1 || s.Crashes != 1 || s.Rollbacks != 1 {
		t.Errorf("lifecycle counts = %d/%d/%d, want 1/1/1", s.Checkpoints, s.Crashes, s.Rollbacks)
	}
	if s.ReplayedWindows != 3 {
		t.Errorf("ReplayedWindows = %d, want 3", s.ReplayedWindows)
	}
	if got := s.TotalMigrations(); got != 5 {
		t.Errorf("TotalMigrations = %d, want 5", got)
	}
	if str := s.String(); !strings.Contains(str, "recovery:") {
		t.Errorf("String() missing recovery section: %q", str)
	}
}

func TestRunStatsConcurrentSnapshot(t *testing.T) {
	s := NewRunStats()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 200; i++ {
			s.RecordWindow(sampleWindow(i))
			s.RecordEvent(Event{Kind: EventCheckpoint, Time: float64(i)})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			snap := s.Snapshot()
			_ = snap.String()
			_ = s.TotalEvents()
		}
	}()
	wg.Wait()
	if s.Windows != 200 {
		t.Errorf("Windows = %d, want 200", s.Windows)
	}
}

// TestRunStatsTotalsWhileGrowing reads the totals while RecordRun keeps
// reallocating the per-LP slices; under -race a slice header read outside the
// lock shows up as a data race.
func TestRunStatsTotalsWhileGrowing(t *testing.T) {
	s := NewRunStats()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= 2000; i++ {
			s.RecordRun(RunMeta{LPs: i})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			_ = s.TotalEvents() + s.TotalCharges() + s.TotalRemote() + s.TotalMigrations()
		}
	}()
	wg.Wait()
	if s.LPs != 2000 {
		t.Errorf("LPs = %d, want 2000", s.LPs)
	}
}

func TestMulti(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils should be nil")
	}
	a, b := NewRunStats(), NewRunStats()
	if got := Multi(nil, a); got != Recorder(a) {
		t.Error("Multi with one non-nil should return it directly")
	}
	m := Multi(a, nil, b)
	m.RecordRun(RunMeta{LPs: 2})
	m.RecordWindow(sampleWindow(0))
	m.RecordEvent(Event{Kind: EventCheckpoint})
	if a.Windows != 1 || b.Windows != 1 || a.Checkpoints != 1 || b.Checkpoints != 1 {
		t.Error("Multi did not fan out to all recorders")
	}
}

func TestServeDebug(t *testing.T) {
	s := NewRunStats()
	s.RecordRun(RunMeta{LPs: 2, Lookahead: 1e-3})
	s.RecordWindow(sampleWindow(0))
	Publish("test-run", s)
	Publish("test-run", s) // re-publish must not panic

	srv, base, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "repro.runstats") ||
		!strings.Contains(body, "test-run") {
		t.Errorf("expvar output missing published stats:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index unexpected:\n%s", body)
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

// BenchmarkRunStatsWindow measures the per-window cost of the aggregator.
func BenchmarkRunStatsWindow(b *testing.B) {
	s := NewRunStats()
	w := sampleWindow(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Index = int64(i)
		s.RecordWindow(w)
	}
}

// BenchmarkMultiDispatch measures the fan-out overhead of a two-recorder
// chain.
func BenchmarkMultiDispatch(b *testing.B) {
	m := Multi(NewRunStats(), NewTrace(io.Discard))
	w := sampleWindow(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RecordWindow(w)
	}
}
