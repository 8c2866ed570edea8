package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/emu"
)

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

// sample is one op as the closed loop saw it.
type sample struct {
	seconds, allocMB, mallocs float64
	traced                    bool
}

// run is the state and outcome of one workload in one process.
type run struct {
	w  *workload
	e  *env
	tr *tracer // nil in the untraced pass

	samples []sample
	// emuRunS and kernelS are the wall time of in-process emu.Run calls and
	// the kernel's own share of each (Result.Kernel.WallTime).
	emuRunS, kernelS []float64
	last             *emu.Result

	setupS            []float64
	warmups           int
	attempted, failed int
	sha               string
	m                 map[string]float64
	notes             []string
	ids               int
}

func (r *run) nextID() int { r.ids++; return r.ids }

func (r *run) set(name string, v float64) { r.m[name] = v }

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// column lists one field of the traced, or of the untraced, timed ops, in
// op order.
func (r *run) column(traced bool, field func(sample) float64) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.traced == traced {
			out = append(out, field(s))
		}
	}
	return out
}

func (r *run) seconds(traced bool) []float64 {
	return r.column(traced, func(s sample) float64 { return s.seconds })
}

// fail counts one attempted output as failed.
func (r *run) fail(what string, err error) {
	r.attempted++
	r.failed++
	r.notef("FAILED %s: %v", what, err)
}

// check counts one attempted output and fails it unless its canonical
// result has the workload's SHA-256 and passes the workload's extra check.
func (r *run) check(st *state, res *emu.Result, what string) {
	sha, err := resultSHA(res)
	if err == nil {
		if st.refSHA == "" {
			st.refSHA = sha
		}
		if sha != st.refSHA {
			err = fmt.Errorf("result sha %.12s, want %.12s", sha, st.refSHA)
		}
	}
	if err == nil && st.extra != nil {
		err = st.extra(res)
	}
	if err != nil {
		r.fail(what, err)
		return
	}
	r.attempted++
}

// kernel records one in-process emu.Run for the des.*/emu.* layer metrics.
func (r *run) kernel(res *emu.Result, seconds float64) {
	r.emuRunS = append(r.emuRunS, seconds)
	r.kernelS = append(r.kernelS, res.Kernel.WallTime.Seconds())
	events, windows := float64(sumInts(res.Kernel.Events)), float64(res.Kernel.Windows)
	r.set("des.windows", windows)
	r.set("des.events", events)
	r.set("des.remote_events", float64(res.RemoteEvents))
	r.set("des.events_per_window", events/windows)
}

// timeOp runs one op and measures it from outside: wall time, bytes
// allocated and objects allocated by the whole process meanwhile.
func timeOp(op func(*tracer, int) (*emu.Result, error), tr *tracer, id int) (sample, *emu.Result, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := tr.begin("op", id)
	t0 := time.Now()
	res, err := op(tr, id)
	dt := time.Since(t0)
	tr.end(s)
	runtime.ReadMemStats(&m1)
	return sample{
		seconds: dt.Seconds(),
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		mallocs: float64(m1.Mallocs - m0.Mallocs),
		traced:  tr != nil,
	}, res, err
}

// runWorkload sets up, warms up, runs the closed loop and derives the
// metrics of one pass. An error means the pass could not be measured; failed
// output checks are counted in the run instead.
func runWorkload(w *workload, e *env) (*run, error) {
	r := &run{w: w, e: e, m: make(map[string]float64)}
	if e.traced {
		r.tr = newTracer()
	}

	var st *state
	for i := 0; i < e.sz.n(setupRuns); i++ {
		s := r.tr.begin("setup", -(i + 1))
		t0 := time.Now()
		next, err := w.setup(e, r.tr, -(i + 1))
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if st != nil && next.refSHA != st.refSHA {
			r.fail(fmt.Sprintf("set-up %d", i), fmt.Errorf("reference sha %.12s, the first set-up's was %.12s", next.refSHA, st.refSHA))
		}
		st = next
	}

	if !e.sz.quick {
		r.warmups = w.warmups
	}
	for i := 0; i < r.warmups; i++ {
		_, res, err := timeOp(st.op, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		r.check(st, res, "warm-up op")
	}

	// The closed loop: one client, next op when the previous one returns.
	// The traced pass alternates untraced and traced ops, at least one of
	// each, so the two medians (and their ratio, the tracing overhead) come
	// from the same minutes; its probes need the time the extra ops would.
	minOps := e.sz.n(w.ops)
	if e.traced {
		minOps = 2
	}
	start := time.Now()
	for n := 0; n < minOps || time.Since(start).Seconds() < e.seconds; n++ {
		var tr *tracer
		if e.traced && n%2 == 1 {
			tr = r.tr
		}
		id := r.nextID()
		smp, res, err := timeOp(st.op, tr, id)
		if err != nil {
			r.fail(fmt.Sprintf("op %d", id), err)
			continue
		}
		r.check(st, res, fmt.Sprintf("op %d", id))
		r.samples = append(r.samples, smp)
		r.last = res
		if tr != nil && w.opIsEmuRun {
			r.kernel(res, smp.seconds)
		}
	}
	if r.last == nil {
		return nil, fmt.Errorf("no op completed: %s", strings.Join(r.notes, "; "))
	}
	r.sha = st.refSHA

	if e.traced {
		if err := r.layerMetrics(st); err != nil {
			return nil, err
		}
	} else {
		r.endToEndMetrics()
	}
	return r, nil
}

// endToEndMetrics derives what a user of the system sees, from the
// untraced pass. The wall-clock numbers among them are informational (see
// main.go): only the ones that repeat from run to run are listed end-to-end.
func (r *run) endToEndMetrics() {
	r.set("setup_s", median(r.setupS))
	r.set("alloc_mb_per_op", median(r.column(false, func(s sample) float64 { return s.allocMB })))
	r.set("modeled_app_time_s", r.last.AppTime)
	r.set("modeled_net_time_s", r.last.NetTime)
	r.throughput()
}

// throughput sets the wall-clock metrics of the untraced ops.
func (r *run) throughput() {
	op := median(r.seconds(false))
	r.set("op_s_p50", op)
	r.set("events_per_s", float64(sumInts(r.last.Kernel.Events))/op)
	r.set("windows_per_s", float64(r.last.Kernel.Windows)/op)
}

// layerMetrics derives the per-layer table from the traced pass: the spans
// around set-up and ops, then the workload's own probes.
func (r *run) layerMetrics(st *state) error {
	tr := r.tr
	if err := r.w.layers(r.e, st, r); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	for metric, name := range map[string]string{
		"topogen.build_s":          "topogen.build",
		"netgraph.routing_build_s": "netgraph.routing_build",
		"traffic.workload_gen_s":   "traffic.workload_gen",
		"mapping.top_s":            "mapping.top",
	} {
		r.set(metric, median(tr.durations(name)))
	}
	r.set("netgraph.routing_mem_mb", float64(st.in.cfg.Routes.MemoryBytes())/1e6)
	r.set("traffic.flows", float64(len(st.in.cfg.Workload.Flows)))
	r.set("map_imbalance", r.last.Imbalance)
	r.throughput()
	if r.w.opIsEmuRun {
		r.set("emu.mallocs_per_op", median(r.column(true, func(s sample) float64 { return s.mallocs })))
	}
	if len(r.emuRunS) > 0 {
		runS, kernelS := median(r.emuRunS), median(r.kernelS)
		r.set("emu.run_s", runS)
		r.set("des.kernel_s", kernelS)
		r.set("emu.self_s", runS-kernelS)
		r.set("des.ns_per_event", kernelS*1e9/r.m["des.events"])
	}
	r.set("bench.trace_overhead", median(r.seconds(true))/median(r.seconds(false)))
	if mb, ok := peakRSSMB(); ok {
		r.set("host.peak_rss_mb", mb)
	}
	return nil
}

// peakRSSMB reads this process's peak resident set (VmHWM) from /proc.
func peakRSSMB() (float64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}
