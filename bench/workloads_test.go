package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// tiny runs every workload through the code path of the full benchmark at
// 2 virtual seconds (1 for the distributed one, whose windows crowd the
// start of the run) and one repetition of everything. Nothing here looks at
// a clock: wall-clock numbers are only required to exist.
var tiny = sizes{mapTopo: "Campus", mapDur: 2, replayDur: 2, distDur: 1, quick: true}

func TestEveryWorkloadTiny(t *testing.T) {
	measured := map[string][]string{
		"map_brite_profile":        {"mapping.profile_s", "mapping.share", "core.self_s", "mapping.place_s", "partition.kway_edge_cut", "emu.final_run_s"},
		"replay_teragrid_seq":      {"des.kernel_s", "des.windows", "emu.mallocs_per_op", "netgraph.lazy_tax"},
		"replay_teragrid_observed": {"obs.stats_tax", "telemetry.tax", "obs.timeline_tax", "netflow.tax", "obs.all_tax", "netflow.alloc_mb"},
		"replay_teragrid_par":      {"des.kernel_s"},
		"dist_campus_tcp":          {"dist.frames_per_window", "dist.wire_mb_per_op", "dist.worker_idle_s", "dist.tcp_over_inproc", "dist.loopback_over_inproc"},
	}
	if runtime.GOMAXPROCS(0) >= 2 {
		measured["replay_teragrid_par"] = append(measured["replay_teragrid_par"], "des.par_over_seq", "des.barrier_wait_s", "des.gomaxprocs")
	}
	everywhere := []string{"topogen.build_s", "netgraph.routing_build_s", "traffic.workload_gen_s", "traffic.flows",
		"mapping.top_s", "emu.run_s", "des.kernel_s", "des.events", "des.ns_per_event", "map_imbalance", "bench.trace_overhead"}

	for _, w := range allWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			r, err := runWorkload(w, &env{seed: 7, sz: tiny})
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted < 1 || len(r.samples) != 1 || len(r.sha) != 64 {
				t.Fatalf("untraced: attempted %d, failed %d, timed %d, sha %q; notes %v", r.attempted, r.failed, len(r.samples), r.sha, r.notes)
			}
			for _, d := range endToEnd {
				if v, ok := r.m[d.name]; !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v (present %v), want > 0", d.name, v, ok)
				}
			}
			sha := r.sha

			r, err = runWorkload(w, &env{seed: 7, traced: true, sz: tiny})
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || len(r.seconds(true)) != 1 || len(r.samples) != 2 {
				t.Fatalf("traced: failed %d, traced ops %d of %d; notes %v", r.failed, len(r.seconds(true)), len(r.samples), r.notes)
			}
			if r.sha != sha {
				t.Errorf("traced pass result_sha %s, untraced %s", r.sha, sha)
			}
			for _, name := range append(everywhere, measured[w.name]...) {
				if _, ok := r.m[name]; !ok {
					t.Errorf("per-layer metric %s was not measured", name)
				}
			}
			for name := range r.m {
				if !defined(perLayer, name) {
					t.Errorf("metric %s is not in the per-layer list", name)
				}
			}
			if w.name == "dist_campus_tcp" {
				// Eight frames per window (EVENTS, VOTE, WINDOW, WINDOW_DONE
				// with each of two workers); beyond them, per worker, HELLO
				// ASSIGN READY, the closing EVENTS/VOTE round, FINISH STATE
				// BYE, and a CHECKPOINT/ACK pair per checkpoint.
				windows := r.m["des.windows"]
				extra := r.m["dist.frames_per_window"]*windows - 8*windows
				if extra < 16 || extra > 16+4*windows {
					t.Errorf("%.0f windows: %.0f frames beyond eight per window", windows, extra)
				}
			}
		})
	}
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// The result line carries exactly the keys the benchmark contract names, and
// exactly the metrics BENCHMARK.json lists for the pass.
func TestResultLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var out, errs bytes.Buffer
		file := filepath.Join(t.TempDir(), "out", "trace.json")
		code := runOne(replaySeqWorkload(), &env{seed: 5, traced: traced, sz: tiny}, machineMeta(5), file, &out, &errs)
		if code != 0 {
			t.Fatalf("exit code %d: %s", code, errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		var keys []string
		for k := range res {
			keys = append(keys, k)
		}
		if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Errorf("result keys = %v", keys)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		want := 0
		for _, d := range defs {
			if d.tableOnly {
				continue
			}
			want++
			if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("traced=%v: metric %s = %+v (present %v), want unit %s", traced, d.name, m, ok, d.unit)
			}
		}
		if len(metrics) != want {
			t.Errorf("traced=%v: %d metrics in the result line, want %d", traced, len(metrics), want)
		}
		if traced {
			var doc traceDoc
			b, err := os.ReadFile(file)
			if err == nil {
				err = json.Unmarshal(b, &doc)
			}
			if err != nil || doc.Workload != "replay_teragrid_seq" || len(doc.Spans) == 0 {
				t.Errorf("trace file: %v, workload %q, %d spans", err, doc.Workload, len(doc.Spans))
			}
		}
	}
}

// BENCHMARK.json and the lists in main.go must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	ws := allWorkloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, code has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []jsonMetric, defs []metricDef, bounded bool) {
		var want []jsonMetric
		for _, d := range defs {
			if d.tableOnly {
				continue
			}
			m := jsonMetric{Name: d.name, Unit: d.unit, Better: d.better}
			if bounded {
				bound := d.bound
				m.Bound = &bound
			}
			want = append(want, m)
		}
		if !reflect.DeepEqual(got, want) {
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(want)
			t.Errorf("%s in BENCHMARK.json:\n%s\ncode:\n%s", kind, gb, wb)
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}
