package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		specs []string
		want  Schedule
		str   string
	}{
		{
			[]string{"crash:2@30", "slow:0@10-20x2.5", "degrade@5-50x3"},
			Schedule{
				Crashes:      []Crash{{Engine: 2, At: 30}},
				Stragglers:   []Straggler{{Engine: 0, From: 10, To: 20, Factor: 2.5}},
				Degradations: []Degradation{{From: 5, To: 50, Factor: 3}},
			},
			"crash:2@30 slow:0@10-20x2.5 degrade@5-50x3",
		},
		// Bounds below 1e-4 render with an exponent, whose '-' is not the
		// interval's.
		{
			[]string{"slow:0@0.00001-2x3"},
			Schedule{Stragglers: []Straggler{{Engine: 0, From: 1e-5, To: 2, Factor: 3}}},
			"slow:0@1e-05-2x3",
		},
		{
			[]string{"degrade@0.00001-2x3"},
			Schedule{Degradations: []Degradation{{From: 1e-5, To: 2, Factor: 3}}},
			"degrade@1e-05-2x3",
		},
		{
			[]string{"slow:1@1e-06-2.5E-05x4"},
			Schedule{Stragglers: []Straggler{{Engine: 1, From: 1e-6, To: 2.5e-5, Factor: 4}}},
			"slow:1@1e-06-2.5e-05x4",
		},
	} {
		s, err := Parse(tc.specs)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.specs, err)
			continue
		}
		if !reflect.DeepEqual(*s, tc.want) {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.specs, *s, tc.want)
		}
		if got := s.String(); got != tc.str {
			t.Errorf("String() = %q, want %q", got, tc.str)
		}
		if err := s.Validate(4); err != nil {
			t.Errorf("valid schedule %q rejected: %v", tc.str, err)
		}
		back, err := Parse(strings.Fields(s.String()))
		if err != nil {
			t.Errorf("Parse of String() %q: %v", s, err)
		} else if !reflect.DeepEqual(*back, tc.want) {
			t.Errorf("Parse of String() %q = %+v, want %+v", s, *back, tc.want)
		}
	}
}

// FuzzParseFaults: Parse never panics, and every schedule it accepts that is
// valid for eight engines reads back from its String() unchanged. (An empty
// schedule renders as "none", a label rather than a spec, so it is skipped.)
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		"crash:2@30,slow:0@10-20x2.5,degrade@5-50x3",
		"slow:0@0.00001-2x3",
		"degrade@0.00001-2x3",
		"slow:1@1e-06-2.5E-05x4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(strings.Split(in, ","))
		if err != nil || s.Validate(8) != nil || s.Empty() {
			return
		}
		back, err := Parse(strings.Fields(s.String()))
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its String() %q does not parse: %v", in, s, err)
		}
		if back.String() != s.String() {
			t.Fatalf("Parse(%q) renders %q, which reads back as %q", in, s, back)
		}
	})
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"boom:1@2", "crash:x@3", "crash:1@y", "crash:1", "slow:0@10x2",
		"slow:0@10-20", "degrade@1-2", "degrade@a-2x3",
	} {
		if _, err := Parse([]string{spec}); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestParseSkipsBlanks(t *testing.T) {
	s, err := Parse([]string{"", "  ", "crash:0@1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Crashes) != 1 {
		t.Errorf("crashes = %+v", s.Crashes)
	}
}

func TestValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		s    Schedule
		k    int
		want string
	}{
		{"engine range", Schedule{Crashes: []Crash{{Engine: 4, At: 1}}}, 4, "out of range"},
		{"non-positive time", Schedule{Crashes: []Crash{{Engine: 0, At: 0}}}, 2, "non-positive"},
		{"double crash", Schedule{Crashes: []Crash{{Engine: 0, At: 1}, {Engine: 0, At: 2}}}, 4, "twice"},
		{"no survivor", Schedule{Crashes: []Crash{{Engine: 0, At: 1}, {Engine: 1, At: 2}}}, 2, "no survivor"},
		{"straggler interval", Schedule{Stragglers: []Straggler{{Engine: 0, From: 5, To: 5, Factor: 2}}}, 2, "empty interval"},
		{"straggler factor", Schedule{Stragglers: []Straggler{{Engine: 0, From: 0, To: 5, Factor: 0.5}}}, 2, "must be >= 1"},
		{"degradation interval", Schedule{Degradations: []Degradation{{From: 3, To: 2, Factor: 2}}}, 2, "empty interval"},
		{"degradation factor", Schedule{Degradations: []Degradation{{From: 0, To: 2, Factor: 0}}}, 2, "must be >= 1"},
		{"NaN crash time", Schedule{Crashes: []Crash{{Engine: 0, At: nan}}}, 2, "non-finite"},
		{"+Inf crash time", Schedule{Crashes: []Crash{{Engine: 0, At: inf}}}, 2, "non-finite"},
		{"NaN straggler bound", Schedule{Stragglers: []Straggler{{Engine: 0, From: nan, To: 5, Factor: 2}}}, 2, "non-finite"},
		{"+Inf straggler bound", Schedule{Stragglers: []Straggler{{Engine: 0, From: 0, To: inf, Factor: 2}}}, 2, "non-finite"},
		{"NaN straggler factor", Schedule{Stragglers: []Straggler{{Engine: 0, From: 0, To: 5, Factor: nan}}}, 2, "non-finite"},
		{"+Inf straggler factor", Schedule{Stragglers: []Straggler{{Engine: 0, From: 0, To: 5, Factor: inf}}}, 2, "non-finite"},
		{"NaN degradation bound", Schedule{Degradations: []Degradation{{From: 0, To: nan, Factor: 2}}}, 2, "non-finite"},
		{"-Inf degradation bound", Schedule{Degradations: []Degradation{{From: -inf, To: 2, Factor: 2}}}, 2, "non-finite"},
		{"NaN degradation factor", Schedule{Degradations: []Degradation{{From: 0, To: 2, Factor: nan}}}, 2, "non-finite"},
		{"+Inf degradation factor", Schedule{Degradations: []Degradation{{From: 0, To: 2, Factor: inf}}}, 2, "non-finite"},
	}
	for _, c := range cases {
		err := c.s.Validate(c.k)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want containing %q", c.name, err, c.want)
		}
	}
	var nilSched *Schedule
	if err := nilSched.Validate(3); err != nil {
		t.Errorf("nil schedule rejected: %v", err)
	}
	if !nilSched.Empty() {
		t.Error("nil schedule not empty")
	}
}

func TestNextCrashOrderAndHandling(t *testing.T) {
	s := &Schedule{Crashes: []Crash{{Engine: 3, At: 20}, {Engine: 1, At: 10}, {Engine: 0, At: 10}}}
	handled := make([]bool, 3)

	idx, c, ok := s.NextCrash(50, handled)
	if !ok || c.Engine != 0 || c.At != 10 {
		t.Fatalf("first crash = %+v ok=%v, want engine 0 @ 10", c, ok)
	}
	handled[idx] = true
	idx, c, ok = s.NextCrash(50, handled)
	if !ok || c.Engine != 1 || c.At != 10 {
		t.Fatalf("second crash = %+v ok=%v, want engine 1 @ 10", c, ok)
	}
	handled[idx] = true
	if _, _, ok := s.NextCrash(15, handled); ok {
		t.Error("crash at 20 detected before its time")
	}
	idx, c, ok = s.NextCrash(20, handled)
	if !ok || c.Engine != 3 {
		t.Fatalf("third crash = %+v ok=%v", c, ok)
	}
	handled[idx] = true
	if _, _, ok := s.NextCrash(1e9, handled); ok {
		t.Error("handled crash re-detected")
	}
}

func TestFactors(t *testing.T) {
	s := &Schedule{
		Stragglers: []Straggler{
			{Engine: 1, From: 10, To: 20, Factor: 2},
			{Engine: 1, From: 15, To: 25, Factor: 3},
		},
		Degradations: []Degradation{{From: 5, To: 10, Factor: 4}},
	}
	if got := s.SlowdownAt(1, 5); got != 1 {
		t.Errorf("SlowdownAt(1,5) = %g, want 1", got)
	}
	if got := s.SlowdownAt(1, 12); got != 2 {
		t.Errorf("SlowdownAt(1,12) = %g, want 2", got)
	}
	if got := s.SlowdownAt(1, 17); got != 6 {
		t.Errorf("SlowdownAt(1,17) = %g, want 6 (compounded)", got)
	}
	if got := s.SlowdownAt(0, 17); got != 1 {
		t.Errorf("SlowdownAt(0,17) = %g, want 1 (other engine)", got)
	}
	if got := s.SlowdownAt(1, 20); got != 3 {
		t.Errorf("SlowdownAt(1,20) = %g, want 3 (half-open interval)", got)
	}
	if got := s.RemoteFactorAt(7); got != 4 {
		t.Errorf("RemoteFactorAt(7) = %g, want 4", got)
	}
	if got := s.RemoteFactorAt(10); got != 1 {
		t.Errorf("RemoteFactorAt(10) = %g, want 1", got)
	}
	var nilSched *Schedule
	if nilSched.SlowdownAt(0, 1) != 1 || nilSched.RemoteFactorAt(1) != 1 {
		t.Error("nil schedule factors != 1")
	}
}
