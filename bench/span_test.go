package main

import (
	"math"
	"testing"
)

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "op", Start: 0, End: 10, Parent: -1},
		{ID: 1, Name: "a", Start: 1, End: 3, Parent: 0},
		{ID: 2, Name: "b", Start: 2, End: 5, Parent: 0},  // overlaps a: counted once
		{ID: 3, Name: "c", Start: 8, End: 12, Parent: 0}, // runs past the parent: clipped
		{ID: 4, Name: "d", Start: 2, End: 4, Parent: 2},  // grandchild: b's business only
	}
	fillSelf(spans)
	want := []float64{10 - (4 + 2), 2, 3 - 2, 4, 2}
	for i, w := range want {
		if math.Abs(spans[i].Self-w) > 1e-12 {
			t.Errorf("span %s self = %g, want %g", spans[i].Name, spans[i].Self, w)
		}
	}
}

func TestTracerNestsAndNilIsNoOp(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", 1))
	if off.finish() != nil || off.durations("x") != nil {
		t.Error("nil tracer recorded something")
	}

	tr := newTracer()
	op := tr.begin("op", 7)
	a := tr.begin("a", 7)
	tr.end(a)
	b := tr.begin("a", 7)
	tr.end(b)
	tr.end(op)
	root := tr.begin("probe", 8)
	tr.end(root)
	spans := tr.finish()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[a].Parent != op || spans[b].Parent != op || spans[op].Parent != -1 || spans[root].Parent != -1 {
		t.Errorf("parents = %d %d %d %d", spans[op].Parent, spans[a].Parent, spans[b].Parent, spans[root].Parent)
	}
	if spans[a].Op != 7 || spans[root].Op != 8 {
		t.Errorf("op ids = %d, %d", spans[a].Op, spans[root].Op)
	}
	if got := len(tr.durations("a")); got != 2 {
		t.Errorf("durations(a) has %d entries, want 2", got)
	}
	for _, s := range spans {
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Errorf("span %+v is not well-formed", s)
		}
	}
}
