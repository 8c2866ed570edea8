package main

import "testing"

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// A percentile is quoted only when at least ten samples lie beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 50, false},
		{20, 50, true},
		{30, 90, false}, // the largest op count of any workload: median only
		{99, 90, false},
		{100, 90, true},
		{999, 99, false},
		{1000, 99, true},
	}
	for _, c := range cases {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentileCarriesTheRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if v, ok := percentile(xs, 90); v < 90 || v > 91 || !ok {
		t.Errorf("p90 of 1..100 = %g, %v; want about 90, reportable", v, ok)
	}
	if v, ok := percentile(xs, 99); v < 99 || v > 100 || ok {
		t.Errorf("p99 of 1..100 = %g, %v; want about 99, not reportable", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of nothing is reportable")
	}
}
