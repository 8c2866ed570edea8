package emu

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// TestPricingIsAFunctionOfCounts is the time model's contract: a run keeps
// counts, not costs, so pricing one run's counts under a second CostModel
// gives bit for bit the AppTime, NetTime and EngineBusy of a fresh run under
// that model — for a fault-free run, and for one whose straggler, cluster
// degradation and engine speeds scale the counts.
func TestPricingIsAFunctionOfCounts(t *testing.T) {
	nw := topogen.Campus()
	base := Config{Network: nw, Assignment: roundRobin(nw.NumNodes(), 3), NumEngines: 3,
		Workload: traffic.DefaultHTTP(20, 5).Generate(nw)}
	scaled := base
	scaled.Faults = &faults.Schedule{
		Stragglers:   []faults.Straggler{{Engine: 1, From: 2, To: 9, Factor: 3}},
		Degradations: []faults.Degradation{{From: 5, To: 14, Factor: 4}},
	}
	scaled.EngineSpeeds = []float64{1, 0.5, 2}
	other := CostModel{PerEvent: 7e-6, PerRemote: 1.1e-3, PerWindow: 2.5e-4}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"fault-free", base}, {"scaled", scaled}} {
		t.Run(tc.name, func(t *testing.T) {
			first, e, err := runEmulation(tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Cost = other
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.AppTime == first.AppTime || fresh.NetTime == first.NetTime {
				t.Fatalf("the second model moved nothing: AppTime %v, NetTime %v under both", fresh.AppTime, fresh.NetTime)
			}
			app, net, busy := other.price(&e.counts)
			app += first.Kernel.SkippedTime
			if app != fresh.AppTime || net != fresh.NetTime || !reflect.DeepEqual(busy, fresh.EngineBusy) {
				t.Errorf("re-priced counts: AppTime %v, NetTime %v, EngineBusy %v\nfresh run:         AppTime %v, NetTime %v, EngineBusy %v",
					app, net, busy, fresh.AppTime, fresh.NetTime, fresh.EngineBusy)
			}
		})
	}
}

// TestPriceFormula checks price against DESIGN.md §3.2 on hand-made counts:
// with C_b,e = PerEvent·X_b,e + PerRemote·Y_b,e, NetTime = Σ_b (max_e C_b,e +
// W_b·PerWindow) and AppTime = Σ_b max(that, width_b). All values are exact
// in binary.
func TestPriceFormula(t *testing.T) {
	// Bucket 0 is compute-bound (engine 1: 2 + 2·1 = 4 s, plus 2 windows of
	// 0.5 s sync = 5 s over 1 s of virtual time); bucket 1 is paced (engine 0:
	// 1 s, plus 0.5 s sync, under its 2 s of virtual time).
	n := counts{engines: 2, events: []float64{1, 2, 1, 0}, remote: []float64{0, 1, 0, 0},
		windows: []int{2, 1}, width: []float64{1, 2}}
	app, net, busy := CostModel{PerEvent: 1, PerRemote: 2, PerWindow: 0.5}.price(&n)
	if app != 5+2 || net != 5+1.5 || !reflect.DeepEqual(busy, []float64{2, 4}) {
		t.Errorf("price = AppTime %v, NetTime %v, EngineBusy %v; want 7, 6.5, [2 4]", app, net, busy)
	}
}
