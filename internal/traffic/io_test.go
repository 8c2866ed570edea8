package traffic

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topogen"
)

func TestWorkloadTraceRoundTrip(t *testing.T) {
	nw := topogen.Campus()
	w := DefaultHTTP(15, 3).Generate(nw)
	w.AppHosts = []int{5, 9}
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, &w); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration != w.Duration {
		t.Errorf("duration %v -> %v", w.Duration, got.Duration)
	}
	if len(got.AppHosts) != 2 || got.AppHosts[0] != 5 || got.AppHosts[1] != 9 {
		t.Errorf("apphosts = %v", got.AppHosts)
	}
	if len(got.Flows) != len(w.Flows) {
		t.Fatalf("flows %d -> %d", len(w.Flows), len(got.Flows))
	}
	for i := range w.Flows {
		if got.Flows[i] != w.Flows[i] {
			t.Fatalf("flow %d changed: %+v -> %+v", i, w.Flows[i], got.Flows[i])
		}
	}
}

func TestWorkloadTraceTagless(t *testing.T) {
	w := Workload{
		Flows:    []Flow{{ID: 0, Src: 1, Dst: 2, Start: 0.5, Bytes: 99}},
		Duration: 1,
	}
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, &w); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flows[0].Tag != "" {
		t.Errorf("tag = %q, want empty", got.Flows[0].Tag)
	}
}

func TestWriteWorkloadRejectsWhitespaceTag(t *testing.T) {
	w := Workload{Flows: []Flow{{Tag: "a b", Bytes: 1, Dst: 1}}}
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, &w); err == nil {
		t.Error("whitespace tag accepted")
	}
}

func TestReadWorkloadErrors(t *testing.T) {
	cases := []string{
		"duration\n",
		"duration x\n",
		"duration -1\n",
		"apphosts x\n",
		"flow 1 2 3\n",
		"flow a 2 0 1\n",
		"flow 1 b 0 1\n",
		"flow 1 2 c 1\n",
		"flow 1 2 0 d\n",
		"bogus\n",
		"duration NaN\n",
		"duration +Inf\n",
		"flow 1 2 NaN 1\n",
		"flow 1 2 0 -5\n",
		"flow 1 2 -1 1\n",
		"flow 1 2 Inf 1\n",
		"flow 1 2 0 0\n",
	}
	for i, in := range cases {
		if _, err := ReadWorkload(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %q", i, in)
		}
	}
	// A bad value is reported at its own line.
	if _, err := ReadWorkload(strings.NewReader("duration 5\nflow 1 2 0 1\nflow 1 2 NaN 1\n")); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("NaN start on line 3: error %v", err)
	}
	// Comments and blanks fine.
	w, err := ReadWorkload(strings.NewReader("# hi\n\nduration 5\nflow 1 2 0.25 100 x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if w.Duration != 5 || len(w.Flows) != 1 || w.Flows[0].Tag != "x" {
		t.Errorf("parsed %+v", w)
	}
}

// FuzzReadWorkload: whatever the trace parser accepts has a finite,
// non-negative duration and flow starts and positive flow sizes, and writes
// back out to a trace that reads in as the same workload.
func FuzzReadWorkload(f *testing.F) {
	for _, seed := range []string{
		"# hi\n\nduration 5\napphosts 3 1 3\nflow 1 2 0.25 100 x\nflow 2 1 0 7\n",
		"duration 0x1p-2\nflow -1 2 1e-300 +9 gridnpb/HC.BT-0\n",
		"duration -0\nflow 1 2 -0 1\n",
		"duration NaN\n",
		"duration +Inf\n",
		"flow 1 2 NaN 1\n",
		"flow 1 2 0 -5\n",
		"apphosts\nflow 1 2 3\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		w, err := ReadWorkload(strings.NewReader(in))
		if err != nil {
			return
		}
		if !finiteTime(w.Duration) {
			t.Fatalf("accepted duration %g", w.Duration)
		}
		for _, fl := range w.Flows {
			if !finiteTime(fl.Start) || fl.Bytes <= 0 {
				t.Fatalf("accepted flow %+v", fl)
			}
		}
		var buf bytes.Buffer
		if err := WriteWorkload(&buf, &w); err != nil {
			t.Fatalf("accepted workload does not write: %v", err)
		}
		back, err := ReadWorkload(&buf)
		if err != nil {
			t.Fatalf("written workload does not read: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(back, w) {
			t.Fatalf("round trip changed the workload:\n%+v\n%+v", w, back)
		}
	})
}
