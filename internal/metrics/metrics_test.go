package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev(nil); got != 0 {
		t.Errorf("StdDev(nil) = %v, want 0", got)
	}
	if got := StdDev([]float64{3, 3, 3}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("StdDev(constant) = %v, want 0", got)
	}
	// Population stddev of {2,4,4,4,5,5,7,9} is exactly 2.
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]float64{10, 10, 10}); got != 0 {
		t.Errorf("balanced imbalance = %v, want 0", got)
	}
	if got := Imbalance([]float64{0, 0, 0}); got != 0 {
		t.Errorf("zero-load imbalance = %v, want 0", got)
	}
	// {0, 2}: mean 1, stddev 1 -> imbalance 1.
	if got := Imbalance([]float64{0, 2}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("imbalance = %v, want 1", got)
	}
}

func TestImbalanceScaleInvariant(t *testing.T) {
	f := func(raw []float64, scale float64) bool {
		if len(raw) < 2 {
			return true
		}
		scale = math.Abs(scale)
		if scale < 1e-6 || scale > 1e6 || math.IsNaN(scale) || math.IsInf(scale, 0) {
			return true
		}
		loads := make([]float64, len(raw))
		var total float64
		for i, v := range raw {
			loads[i] = math.Abs(math.Mod(v, 1000))
			if math.IsNaN(loads[i]) {
				return true
			}
			total += loads[i]
		}
		if total == 0 {
			return true
		}
		scaled := make([]float64, len(loads))
		for i, v := range loads {
			scaled[i] = v * scale
		}
		return almostEqual(Imbalance(loads), Imbalance(scaled), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxOverMean(t *testing.T) {
	if got := MaxOverMean([]float64{1, 1, 1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("MaxOverMean balanced = %v, want 1", got)
	}
	if got := MaxOverMean([]float64{0, 0}); got != 0 {
		t.Errorf("MaxOverMean zero = %v, want 0", got)
	}
	if got := MaxOverMean([]float64{3, 1}); !almostEqual(got, 1.5, 1e-12) {
		t.Errorf("MaxOverMean = %v, want 1.5", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Sum(xs); got != 11 {
		t.Errorf("Sum = %v, want 11", got)
	}
	if Max(nil) != 0 || Min(nil) != 0 || Sum(nil) != 0 {
		t.Error("empty-slice Max/Min/Sum should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	// Percentile must not mutate input.
	ys := []float64{5, 1, 3}
	Percentile(ys, 50)
	if ys[0] != 5 || ys[1] != 1 || ys[2] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestSeriesAddAndTotals(t *testing.T) {
	s := NewSeries(2.0, 3, 5)
	if s.Nodes() != 3 || s.Buckets() != 5 {
		t.Fatalf("shape = %dx%d, want 5x3", s.Buckets(), s.Nodes())
	}
	s.Add(0.5, 0, 10) // bucket 0
	s.Add(3.9, 1, 5)  // bucket 1
	s.Add(9.99, 2, 7) // bucket 4
	s.Add(-1, 0, 1)   // clamped to bucket 0
	s.Add(100, 2, 2)  // clamped to bucket 4
	if s.Loads[0][0] != 11 {
		t.Errorf("bucket0 node0 = %v, want 11", s.Loads[0][0])
	}
	if s.Loads[1][1] != 5 {
		t.Errorf("bucket1 node1 = %v, want 5", s.Loads[1][1])
	}
	if s.Loads[4][2] != 9 {
		t.Errorf("bucket4 node2 = %v, want 9", s.Loads[4][2])
	}
	tot := s.TotalPerNode()
	if tot[0] != 11 || tot[1] != 5 || tot[2] != 9 {
		t.Errorf("TotalPerNode = %v", tot)
	}
	per := s.TotalPerBucket()
	if per[0] != 11 || per[1] != 5 || per[4] != 9 {
		t.Errorf("TotalPerBucket = %v", per)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries(1.0, 0, 0)
	s.Add(1, 0, 5) // must not panic
	if s.Nodes() != 0 || s.Buckets() != 0 {
		t.Error("empty series shape wrong")
	}
	if len(s.ImbalancePerBucket()) != 0 {
		t.Error("empty series imbalance not empty")
	}
}

func TestSeriesImbalancePerBucket(t *testing.T) {
	s := NewSeries(1.0, 2, 2)
	s.Loads[0] = []float64{1, 1} // balanced
	s.Loads[1] = []float64{0, 2} // imbalance 1
	got := s.ImbalancePerBucket()
	if !almostEqual(got[0], 0, 1e-12) || !almostEqual(got[1], 1, 1e-12) {
		t.Errorf("ImbalancePerBucket = %v, want [0 1]", got)
	}
}

func TestDominatingNode(t *testing.T) {
	s := NewSeries(1.0, 3, 3)
	s.Loads[0] = []float64{5, 1, 1}
	s.Loads[1] = []float64{1, 5, 1}
	s.Loads[2] = []float64{2, 2, 2} // tie -> lowest index
	got := s.DominatingNode()
	want := []int{0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("DominatingNode[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 50); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Improvement = %v, want 0.5", got)
	}
	if got := Improvement(0, 50); got != 0 {
		t.Errorf("Improvement from 0 = %v, want 0", got)
	}
	if got := Improvement(50, 100); !almostEqual(got, -1, 1e-12) {
		t.Errorf("negative Improvement = %v, want -1", got)
	}
}

func TestSeriesString(t *testing.T) {
	s := NewSeries(2.0, 2, 1)
	s.Loads[0] = []float64{1, 2}
	if s.String() == "" {
		t.Error("String() empty")
	}
}

func TestImbalanceSubset(t *testing.T) {
	loads := []float64{10, 10, 0}
	// Full set: the dead third engine drags imbalance up.
	if got := ImbalanceSubset(loads, nil); got != Imbalance(loads) {
		t.Errorf("nil keep = %v, want Imbalance %v", got, Imbalance(loads))
	}
	// Alive subset {0,1} is perfectly balanced.
	if got := ImbalanceSubset(loads, []bool{true, true, false}); got != 0 {
		t.Errorf("alive-subset imbalance = %v, want 0", got)
	}
	// Single survivor: zero by definition.
	if got := ImbalanceSubset(loads, []bool{false, false, true}); got != 0 {
		t.Errorf("single-survivor imbalance = %v, want 0", got)
	}
	// Short keep slice: out-of-range loads excluded.
	if got := ImbalanceSubset(loads, []bool{true}); got != 0 {
		t.Errorf("short keep = %v, want 0", got)
	}
}
