package apps

import (
	"math"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

func appHosts(n int) []int {
	nw := topogen.TeraGrid()
	return nw.Hosts()[:n]
}

func mustGen(t *testing.T, a App, hosts []int, seed int64) traffic.Workload {
	t.Helper()
	w, err := a.Generate(hosts, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestScaLapackDefaults(t *testing.T) {
	s := DefaultScaLapack()
	if s.Hosts() != 10 {
		t.Errorf("Hosts = %d, want 10", s.Hosts())
	}
	if s.Name() != "ScaLapack" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.N != 3000 || s.NB != 100 || s.Duration != 600 {
		t.Errorf("defaults = %+v, want paper config", s)
	}
}

func TestScaLapackGenerate(t *testing.T) {
	s := DefaultScaLapack()
	hosts := appHosts(10)
	w := mustGen(t, s, hosts, 1)
	if len(w.Flows) == 0 {
		t.Fatal("no flows")
	}
	if w.Duration != 600 {
		t.Errorf("duration = %v", w.Duration)
	}
	if len(w.AppHosts) != 10 {
		t.Errorf("AppHosts = %v", w.AppHosts)
	}
	if err := w.Validate(topogen.TeraGrid()); err != nil {
		t.Fatal(err)
	}
	// 30 iterations; each emits row broadcasts (2 rows x 4 dsts) and column
	// broadcasts (5 cols x 1 dst) = 13 flows -> 390 total.
	if len(w.Flows) != 390 {
		t.Errorf("flows = %d, want 390", len(w.Flows))
	}
	for _, f := range w.Flows {
		if f.Tag != "scalapack" {
			t.Fatalf("tag = %q", f.Tag)
		}
		if f.Start < 0 || f.Start > 600 {
			t.Fatalf("start %v out of range", f.Start)
		}
	}
}

func TestScaLapackTrafficIsEven(t *testing.T) {
	// The paper relies on ScaLapack's traffic being evenly distributed
	// across processes (that is why PLACE predicts it well). Per-host bytes
	// sent+received should have low normalized deviation.
	s := DefaultScaLapack()
	hosts := appHosts(10)
	w := mustGen(t, s, hosts, 2)
	byHost := make(map[int]float64)
	for _, f := range w.Flows {
		byHost[f.Src] += float64(f.Bytes)
		byHost[f.Dst] += float64(f.Bytes)
	}
	var loads []float64
	for _, h := range hosts {
		loads = append(loads, byHost[h])
	}
	if imb := metrics.Imbalance(loads); imb > 0.35 {
		t.Errorf("ScaLapack per-host traffic imbalance = %.2f, want <= 0.35 (regular app)", imb)
	}
}

func TestScaLapackShrinkingPanels(t *testing.T) {
	// Later iterations factor smaller trailing matrices: early flows must be
	// larger than late flows.
	s := DefaultScaLapack()
	w := mustGen(t, s, appHosts(10), 3)
	early, late := w.Flows[0].Bytes, w.Flows[len(w.Flows)-1].Bytes
	if early <= late {
		t.Errorf("panel sizes do not shrink: first %d, last %d", early, late)
	}
}

func TestScaLapackDeterminism(t *testing.T) {
	s := DefaultScaLapack()
	hosts := appHosts(10)
	a := mustGen(t, s, hosts, 5)
	b := mustGen(t, s, hosts, 5)
	if len(a.Flows) != len(b.Flows) {
		t.Fatal("nondeterministic flow count")
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatal("nondeterministic flows")
		}
	}
}

func TestGenerateErrorsOnWrongHostCount(t *testing.T) {
	if _, err := DefaultScaLapack().Generate(appHosts(3), 1); err == nil {
		t.Error("ScaLapack: wrong host count did not error")
	}
	if _, err := DefaultGridNPB().Generate(appHosts(3), 1); err == nil {
		t.Error("GridNPB: wrong host count did not error")
	}
}

func TestGridNPBDefaults(t *testing.T) {
	g := DefaultGridNPB()
	if g.Hosts() != 10 || g.Name() != "GridNPB" {
		t.Errorf("defaults wrong: %+v", g)
	}
}

func TestGridNPBGenerate(t *testing.T) {
	g := DefaultGridNPB()
	hosts := appHosts(10)
	w := mustGen(t, g, hosts, 1)
	if len(w.Flows) == 0 {
		t.Fatal("no flows")
	}
	if err := w.Validate(topogen.TeraGrid()); err != nil {
		t.Fatal(err)
	}
	if w.Duration != 900 {
		t.Errorf("duration = %v, want 900", w.Duration)
	}
	tags := map[string]bool{}
	for _, f := range w.Flows {
		tags[f.Tag[:10]] = true
		if f.Start < 0 {
			t.Fatal("negative start")
		}
	}
	// All three workflow graphs must contribute flows.
	for _, prefix := range []string{"gridnpb/HC", "gridnpb/VP", "gridnpb/MB"} {
		found := false
		for _, f := range w.Flows {
			if len(f.Tag) >= len(prefix) && f.Tag[:len(prefix)] == prefix {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no flows from %s", prefix)
		}
	}
	_ = tags
}

func TestGridNPBTrafficIsIrregular(t *testing.T) {
	// The paper's premise: GridNPB traffic is irregular across hosts —
	// substantially more imbalanced than ScaLapack's.
	hosts := appHosts(10)
	gw := mustGen(t, DefaultGridNPB(), hosts, 2)
	sw := mustGen(t, DefaultScaLapack(), hosts, 2)
	loadOf := func(w traffic.Workload) []float64 {
		byHost := make(map[int]float64)
		for _, f := range w.Flows {
			byHost[f.Src] += float64(f.Bytes)
			byHost[f.Dst] += float64(f.Bytes)
		}
		var loads []float64
		for _, h := range hosts {
			loads = append(loads, byHost[h])
		}
		return loads
	}
	gi := metrics.Imbalance(loadOf(gw))
	si := metrics.Imbalance(loadOf(sw))
	if gi <= si {
		t.Errorf("GridNPB imbalance %.3f <= ScaLapack %.3f; should be more irregular", gi, si)
	}
}

func TestGridNPBBursty(t *testing.T) {
	// Traffic should be concentrated in bursts: a large fraction of bytes
	// lands in a small fraction of 10-second bins.
	g := DefaultGridNPB()
	w := mustGen(t, g, appHosts(10), 4)
	bins := make(map[int]float64)
	var total float64
	for _, f := range w.Flows {
		bins[int(f.Start/10)] += float64(f.Bytes)
		total += float64(f.Bytes)
	}
	var vals []float64
	for _, v := range bins {
		vals = append(vals, v)
	}
	// Top bin should hold well above the uniform share.
	top := slices.Max(vals)
	uniform := total / float64(int(g.Duration/10))
	if top < 2*uniform {
		t.Errorf("top bin %.3g < 2x uniform share %.3g: not bursty", top, uniform)
	}
}

func TestGridNPBDeterminism(t *testing.T) {
	hosts := appHosts(10)
	a := mustGen(t, DefaultGridNPB(), hosts, 7)
	b := mustGen(t, DefaultGridNPB(), hosts, 7)
	if len(a.Flows) != len(b.Flows) {
		t.Fatal("nondeterministic flow count")
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatal("nondeterministic flows")
		}
	}
}

func TestGraphShapes(t *testing.T) {
	hc := hcGraph()
	if len(hc) != 9 {
		t.Errorf("HC tasks = %d, want 9", len(hc))
	}
	// Strict chain: every task except the last has exactly one successor.
	for i, task := range hc[:len(hc)-1] {
		if len(task.succ) != 1 || task.succ[0] != i+1 {
			t.Errorf("HC task %d successors = %v", i, task.succ)
		}
	}
	if len(hc[len(hc)-1].succ) != 0 {
		t.Error("HC last task has successors")
	}

	vp := vpGraph()
	if len(vp) != 9 {
		t.Errorf("VP tasks = %d, want 9", len(vp))
	}
	mb := mbGraph()
	if len(mb) != 9 {
		t.Errorf("MB tasks = %d, want 9", len(mb))
	}
	// MB fan-out: first-layer task 0 feeds all of layer 1.
	if len(mb[0].succ) != 3 {
		t.Errorf("MB task 0 successors = %v, want 3 (fan-out)", mb[0].succ)
	}
}

func TestCriticalPath(t *testing.T) {
	hc := hcGraph()
	// HC chain: 3x(BT 9 + SP 7 + LU 8) = 72.
	if cp := criticalPath(hc); math.Abs(cp-72) > 1e-9 {
		t.Errorf("HC critical path = %v, want 72", cp)
	}
	// Empty/loop-free guard.
	if cp := criticalPath([]gridTask{{kind: "BT"}}); cp != 9 {
		t.Errorf("single-task critical path = %v, want 9", cp)
	}
}

func TestAppInterfaceCompliance(t *testing.T) {
	var _ App = ScaLapack{}
	var _ App = GridNPB{}
}

func TestScaLapackScaleBytes(t *testing.T) {
	hosts := appHosts(10)
	base := ScaLapack{N: 1000, NB: 100, PRows: 2, PCols: 5, Duration: 60}
	scaled := base
	scaled.ScaleBytes = 4
	wb := mustGen(t, base, hosts, 1)
	ws := mustGen(t, scaled, hosts, 1)
	if ws.TotalBytes() < 3*wb.TotalBytes() || ws.TotalBytes() > 5*wb.TotalBytes() {
		t.Errorf("ScaleBytes=4: %d vs base %d", ws.TotalBytes(), wb.TotalBytes())
	}
	if len(ws.Flows) != len(wb.Flows) {
		t.Error("ScaleBytes changed flow structure")
	}
}

func TestScaLapackCustomGrid(t *testing.T) {
	s := ScaLapack{N: 800, NB: 200, PRows: 3, PCols: 4, Duration: 30}
	if s.Hosts() != 12 {
		t.Fatalf("Hosts = %d, want 12", s.Hosts())
	}
	nw := topogen.TeraGrid()
	hosts := nw.Hosts()[:12]
	w := mustGen(t, s, hosts, 1)
	if err := w.Validate(nw); err != nil {
		t.Fatal(err)
	}
	// 4 iterations; per iter: rows 3x3 + cols 4x2 = 17 flows.
	if len(w.Flows) != 4*17 {
		t.Errorf("flows = %d, want %d", len(w.Flows), 4*17)
	}
}

func TestGridNPBScaleBytes(t *testing.T) {
	hosts := appHosts(10)
	base := GridNPB{NumHosts: 10, Duration: 60, ScaleBytes: 1}
	big := GridNPB{NumHosts: 10, Duration: 60, ScaleBytes: 3}
	wb := mustGen(t, base, hosts, 2)
	ws := mustGen(t, big, hosts, 2)
	if ws.TotalBytes() < 2*wb.TotalBytes() {
		t.Errorf("ScaleBytes=3 volume %d vs base %d", ws.TotalBytes(), wb.TotalBytes())
	}
}

func TestGridNPBDefaultsApplied(t *testing.T) {
	// Zero-value Duration/ScaleBytes fall back inside Generate.
	g := GridNPB{NumHosts: 10}
	w := mustGen(t, g, appHosts(10), 1)
	if w.Duration != 900 {
		t.Errorf("default duration = %v, want 900", w.Duration)
	}
	if len(w.Flows) == 0 {
		t.Error("no flows with defaults")
	}
}
