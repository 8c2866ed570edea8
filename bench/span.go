package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the layers themselves are not instrumented). Times are seconds since
// the tracer started. Parent is the index of the enclosing span, -1 at the
// root; spans of one operation share Op (setup passes use negative ids).
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Self   float64 `json:"self_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced pass: every method is a no-op, so the same call sites serve both
// passes. Spans nest by call order on one goroutine; concurrent layers (the
// dist workers) are measured by counters instead (see recConn).
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Op: op,
		Start: time.Since(t.t0).Seconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Seconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// durations lists the length of every closed span called name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// of sums the closed spans called name that belong to operation op.
func (t *tracer) of(name string, op int) float64 {
	total := 0.0
	if t == nil {
		return total
	}
	for _, s := range t.spans {
		if s.Name == name && s.Op == op {
			total += s.End - s.Start
		}
	}
	return total
}

// finish fills every span's self time and returns the spans.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	fillSelf(t.spans)
	return t.spans
}

// fillSelf sets each span's Self to its duration minus the part of that
// interval its direct children cover (overlapping children count once).
func fillSelf(spans []span) {
	type iv struct{ a, b float64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		ivs := kids[s.ID]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, edge := 0.0, s.Start
		for _, k := range ivs {
			a, b := k.a, k.b
			if a < edge {
				a = edge
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				covered += b - a
				edge = b
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}
