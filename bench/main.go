// Command bench is the repository's end-to-end benchmark: five workloads
// over the mapped-emulation pipeline, each a closed loop of one client,
// measured from outside through the layers' public functions. See README.md
// in this directory for the glossary of workloads and metrics.
//
//	go run ./bench -seed 42                   # all workloads, end-to-end metrics
//	go run ./bench -seed 42 -traced           # plus the per-layer table
//	go run ./bench -workload dist_campus_tcp  # one workload, in this process
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	// tableOnly keeps a per-layer metric out of BENCHMARK.json and the
	// result line: it is a timing that only some workloads measure, and the
	// result line may carry no time that is a constant 0. It is still
	// printed, by name and with its unit, in the table of the workloads
	// that measure it.
	tableOnly bool
}

// endToEnd are the listed end-to-end metrics, from the untraced pass. Every
// workload reports every one. The driver accepts a benchmark only if ten runs
// on ten seeds spread by less than the bound, so only what repeats is here:
// on the reference machine the wall-clock numbers do not (see README.md), and
// by the issue's own rule they are demoted to the per-layer list (wallClock).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.15},
	{name: "modeled_app_time_s", unit: "s", better: "lower", bound: 0.25},
	{name: "modeled_net_time_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are the single-layer metrics of the traced pass. A workload
// reports the ones its ops or probes measure; the rest read n/a in the
// table and, unless tableOnly, 0 in the result line (the layer was bypassed:
// no frames, no collector, no parallel barrier).
var perLayer = []metricDef{
	{name: "op_s_p50", unit: "s", better: "lower"},
	{name: "events_per_s", unit: "1/s", better: "higher"},
	{name: "windows_per_s", unit: "1/s", better: "higher"},

	{name: "topogen.build_s", unit: "s", better: "lower"},
	{name: "netgraph.routing_build_s", unit: "s", better: "lower"},
	{name: "netgraph.routing_mem_mb", unit: "MB", better: "lower"},
	{name: "traffic.workload_gen_s", unit: "s", better: "lower"},
	{name: "traffic.flows", unit: "count", better: "higher"},
	{name: "mapping.top_s", unit: "s", better: "lower"},
	{tableOnly: true, name: "emu.profile_prerun_s", unit: "s", better: "lower"},
	{tableOnly: true, name: "netflow.summarize_s", unit: "s", better: "lower"},
	{tableOnly: true, name: "mapping.profile_s", unit: "s", better: "lower"},
	{tableOnly: true, name: "emu.final_run_s", unit: "s", better: "lower"},
	{tableOnly: true, name: "core.self_s", unit: "s", better: "lower"},
	{name: "mapping.share", unit: "ratio", better: "lower"},
	{tableOnly: true, name: "mapping.place_s", unit: "s", better: "lower"},
	{tableOnly: true, name: "partition.kway_s", unit: "s", better: "lower"},
	{name: "partition.kway_edge_cut", unit: "count", better: "lower"},
	{name: "partition.kway_max_balance", unit: "ratio", better: "lower"},
	{name: "map_imbalance", unit: "ratio", better: "lower"},

	{name: "emu.run_s", unit: "s", better: "lower"},
	{name: "des.kernel_s", unit: "s", better: "lower"},
	{name: "emu.self_s", unit: "s", better: "lower"},
	{name: "des.windows", unit: "count", better: "lower"},
	{name: "des.events", unit: "count", better: "higher"},
	{name: "des.remote_events", unit: "count", better: "lower"},
	{name: "des.events_per_window", unit: "count", better: "higher"},
	{name: "des.ns_per_event", unit: "ns", better: "lower"},
	{tableOnly: true, name: "des.window_us_p50", unit: "us", better: "lower"},
	{tableOnly: true, name: "des.window_us_p99", unit: "us", better: "lower"},
	{name: "emu.mallocs_per_op", unit: "count", better: "lower"},
	{name: "netgraph.lazy_tax", unit: "ratio", better: "lower"},

	{name: "obs.stats_tax", unit: "ratio", better: "lower"},
	{name: "telemetry.tax", unit: "ratio", better: "lower"},
	{name: "obs.timeline_tax", unit: "ratio", better: "lower"},
	{name: "netflow.tax", unit: "ratio", better: "lower"},
	{name: "obs.all_tax", unit: "ratio", better: "lower"},
	{name: "obs.stats_alloc_mb", unit: "MB", better: "lower"},
	{name: "telemetry.alloc_mb", unit: "MB", better: "lower"},
	{name: "obs.timeline_alloc_mb", unit: "MB", better: "lower"},
	{name: "netflow.alloc_mb", unit: "MB", better: "lower"},

	{tableOnly: true, name: "des.par_kernel_s", unit: "s", better: "lower"},
	{name: "des.par_over_seq", unit: "ratio", better: "lower"},
	{tableOnly: true, name: "des.barrier_wait_s", unit: "s", better: "lower"},
	{name: "des.gomaxprocs", unit: "count", better: "higher"},

	{tableOnly: true, name: "dist.handshake_s", unit: "s", better: "lower"},
	{name: "dist.frames_per_window", unit: "count", better: "lower"},
	{name: "dist.wire_bytes_per_window", unit: "B", better: "lower"},
	{name: "dist.wire_mb_per_op", unit: "MB", better: "lower"},
	{tableOnly: true, name: "dist.coord_send_s", unit: "s", better: "lower"},
	{tableOnly: true, name: "dist.coord_recv_wait_s", unit: "s", better: "lower"},
	{tableOnly: true, name: "dist.coord_self_s", unit: "s", better: "lower"},
	{tableOnly: true, name: "dist.window_rtt_us_p50", unit: "us", better: "lower"},
	{tableOnly: true, name: "dist.window_rtt_us_p99", unit: "us", better: "lower"},
	{tableOnly: true, name: "dist.worker_busy_s", unit: "s", better: "lower"},
	{tableOnly: true, name: "dist.worker_idle_s", unit: "s", better: "lower"},
	{tableOnly: true, name: "dist.loopback_op_s", unit: "s", better: "lower"},
	{tableOnly: true, name: "dist.inproc_op_s", unit: "s", better: "lower"},
	{name: "dist.tcp_over_inproc", unit: "ratio", better: "lower"},
	{name: "dist.loopback_over_inproc", unit: "ratio", better: "lower"},

	{name: "host.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "bench.trace_overhead", unit: "ratio", better: "lower"},
}

// wallClock are the end-to-end timings of the untraced ops, which head the
// per-layer list. The untraced pass prints them under the listed metrics;
// only the traced pass's result line carries them.
var wallClock = perLayer[:3]

// result is the last line of a single-workload run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// meta describes the machine and the run; it heads every output and every
// trace file.
type meta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Transport  string `json:"transport"`
}

func machineMeta(seed int64) meta {
	m := meta{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: "unknown", Commit: "unknown", Seed: seed,
		Transport: "dist_campus_tcp runs TCP over the host loopback interface (127.0.0.1), not a real link",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

func (m meta) String() string {
	return fmt.Sprintf("meta: nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s seed=%d\nmeta: %s",
		m.NProc, m.GOMAXPROCS, m.Go, m.CPU, m.Commit, m.Seed, m.Transport)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: all, each in a fresh child process)")
	seed := fs.Int64("seed", 42, "seed of the generated traffic and of the partitioner")
	seconds := fs.Float64("seconds", 8, "measure each workload's closed loop for at least this long")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	traced := fs.Bool("traced", false, "all workloads: run the traced pass after the untraced one; one workload: same as -trace 1")
	traceFile := fs.String("trace-file", filepath.Join("bench", "out", "trace.json"), "where the traced pass writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	m := machineMeta(*seed)
	if *name == "" {
		return runAll(m, *seconds, *traced || *trace == 1, *traceFile, stdout, stderr)
	}
	for _, w := range allWorkloads() {
		if w.name == *name {
			e := &env{seed: *seed, seconds: *seconds, traced: *traced || *trace == 1, sz: fullSizes}
			return runOne(w, e, m, *traceFile, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
	return 2
}

// runOne measures one workload in this process, prints its table and, as
// the last line, its result object. It returns the exit code: 1 when an
// output check failed or the pass could not be measured.
func runOne(w *workload, e *env, m meta, traceFile string, stdout, stderr io.Writer) int {
	pass, listed, unlisted := "untraced", endToEnd, wallClock
	if e.traced {
		pass, listed, unlisted = "traced", perLayer, nil
	}
	fmt.Fprintf(stdout, "== %s (%s pass) ==\n%s\nwhy: %s\n", w.name, pass, m, w.why)
	r, err := runWorkload(w, e)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "load: closed loop, 1 client; %d set-ups, %d warm-up + %d timed ops", len(r.setupS), r.warmups, len(r.samples))
	if e.traced {
		fmt.Fprintf(stdout, " (%d of them traced, alternating)", len(r.seconds(true)))
	}
	fmt.Fprintf(stdout, "\nresult_sha: %s\nchecks: %d attempted, %d failed (fail_ratio %.4f)\n",
		r.sha, r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	for _, note := range r.notes {
		fmt.Fprintf(stdout, "note: %s\n", note)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(listed))}
	row := func(d metricDef) {
		v, ok := r.m[d.name]
		switch {
		case !ok:
			fmt.Fprintf(stdout, "  %-28s %14s\n", d.name, "n/a")
		case d.name == "op_s_p50":
			fmt.Fprintf(stdout, "  %-28s %14.6g %-5s (n=%d; %s)\n", d.name, v, d.unit, len(r.seconds(false)), tailNote(r.seconds(false)))
		default:
			fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	for _, d := range listed {
		row(d)
		if !d.tableOnly {
			res.Metrics[d.name] = metricValue{Value: r.m[d.name], Unit: d.unit}
		}
	}
	for _, d := range unlisted {
		row(d)
	}
	if e.traced {
		if err := writeTrace(traceFile, w.name, m, r.tr.finish()); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(r.tr.spans), traceFile)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// tailNote quotes the highest percentile of xs that has ten samples beyond
// it, or says that none has.
func tailNote(xs []float64) string {
	for _, p := range []float64{99, 95, 90} {
		if v, ok := percentile(xs, p); ok {
			return fmt.Sprintf("p%g %.6g s", p, v)
		}
	}
	return "no tail percentile: fewer than ten samples lie beyond any"
}

// traceDoc is the layout of a trace file.
type traceDoc struct {
	Workload string `json:"workload"`
	Meta     meta   `json:"meta"`
	Spans    []span `json:"spans"`
}

func writeTrace(path, workload string, m meta, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traceDoc{Workload: workload, Meta: m, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runAll runs every workload in a fresh child process of this binary (so
// no workload inherits another's heap, caches or scheduler state and order
// does not matter), relays their tables, and prints one summary object.
// With traced set each workload runs twice: the untraced pass for the
// end-to-end metrics, then the traced pass for the per-layer table; the
// passes' trace files are gathered into traceFile.
func runAll(m meta, seconds float64, traced bool, traceFile string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	passes := []int{0}
	if traced {
		passes = []int{0, 1}
	}
	code := 0
	summary := make(map[string]map[string]json.RawMessage)
	var traces []json.RawMessage
	for _, w := range allWorkloads() {
		summary[w.name] = make(map[string]json.RawMessage)
		for _, pass := range passes {
			part := fmt.Sprintf("%s.%s.part", traceFile, w.name)
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(m.Seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(pass), "-trace-file", part)
			var out bytes.Buffer
			cmd.Stdout = io.MultiWriter(stdout, &out)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s (trace %d): %v\n", w.name, pass, err)
				code = 1
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if last := lines[len(lines)-1]; json.Valid([]byte(last)) {
				summary[w.name][[]string{"end_to_end", "per_layer"}[pass]] = json.RawMessage(last)
			}
			if pass == 1 {
				if b, err := os.ReadFile(part); err == nil {
					traces = append(traces, b)
					os.Remove(part)
				}
			}
			fmt.Fprintln(stdout)
		}
	}
	if traced {
		b, err := json.Marshal(map[string]any{"workloads": traces})
		if err == nil {
			err = os.WriteFile(traceFile, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			code = 1
		}
	}
	line, _ := json.Marshal(map[string]any{"correct": code == 0, "meta": m, "workloads": summary})
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}
