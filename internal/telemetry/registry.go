package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// Registry is a minimal Prometheus-style metric registry: counter, gauge and
// histogram families with optional labels, rendered in the Prometheus text
// exposition format (version 0.0.4) by WriteExposition. It is stdlib-only and
// deterministic — families sort by name, series by their rendered label set,
// and floats format with strconv's shortest 'g' form — so two identical runs
// expose byte-identical /metrics bodies (the same contract as obs.Trace).
//
// Handles (Value, HistValue) are cheap and concurrency-safe; the collector
// updates them only at publication points, never on the per-packet path.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

type family struct {
	name, help string
	kind       metricKind
	series     map[string]*seriesVal
}

type seriesVal struct {
	labels string // rendered `{k="v",...}`, or "" for unlabelled
	val    float64
	hist   *metrics.Histogram
}

// Label is one key="value" pair attached to a metric series.
type Label struct{ Key, Value string }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// ResetRegistry drops every family (for reusing one registry across runs).
func (r *Registry) ResetRegistry() {
	r.mu.Lock()
	r.fams = make(map[string]*family)
	r.mu.Unlock()
}

// ZeroAll resets every registered series to its freshly-registered state —
// value zero, histogram empty — without dropping the families, so existing
// handles stay valid. Renders byte-identically to a rebuilt registry; used
// when a collector is reused across runs of the same dimensions.
func (r *Registry) ZeroAll() {
	r.mu.Lock()
	for _, f := range r.fams {
		for _, sv := range f.series {
			sv.val = 0
			sv.hist = nil
		}
	}
	r.mu.Unlock()
}

// Value is a handle on one counter or gauge series.
type Value struct {
	r  *Registry
	sv *seriesVal
}

// Set replaces the series value. For counter series the collector only ever
// sets monotonically increasing totals.
func (v Value) Set(x float64) {
	v.r.mu.Lock()
	v.sv.val = x
	v.r.mu.Unlock()
}

// Add increments the series value.
func (v Value) Add(d float64) {
	v.r.mu.Lock()
	v.sv.val += d
	v.r.mu.Unlock()
}

// Get returns the current value (mainly for tests).
func (v Value) Get() float64 {
	v.r.mu.RLock()
	defer v.r.mu.RUnlock()
	return v.sv.val
}

// HistValue is a handle on one histogram series.
type HistValue struct {
	r  *Registry
	sv *seriesVal
}

// Set replaces the exposed histogram with a copy of h.
func (v HistValue) Set(h *metrics.Histogram) {
	cp := h.CloneHistogram()
	v.r.mu.Lock()
	v.sv.hist = cp
	v.r.mu.Unlock()
}

// Counter registers (or finds) a counter series and returns its handle.
func (r *Registry) Counter(name, help string, labels ...Label) Value {
	return Value{r, r.lookup(name, help, counterKind, labels)}
}

// Gauge registers (or finds) a gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...Label) Value {
	return Value{r, r.lookup(name, help, gaugeKind, labels)}
}

// Histogram registers (or finds) a histogram series and returns its handle.
func (r *Registry) Histogram(name, help string, labels ...Label) HistValue {
	return HistValue{r, r.lookup(name, help, histogramKind, labels)}
}

func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) *seriesVal {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*seriesVal)}
		r.fams[name] = f
	}
	sv, ok := f.series[key]
	if !ok {
		sv = &seriesVal{labels: key}
		f.series[key] = sv
	}
	return sv
}

// renderLabels renders a deterministic `{k="v",...}` suffix (keys sorted).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WriteExposition renders every family in the Prometheus text format,
// deterministically ordered.
func (r *Registry) WriteExposition(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := r.fams[n]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sv := f.series[k]
			var err error
			if f.kind == histogramKind {
				err = writeHistogram(w, f.name, sv)
			} else {
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, sv.labels, fmtFloat(sv.val))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram series as cumulative le buckets plus
// _sum and _count, following the Prometheus histogram convention.
func writeHistogram(w io.Writer, name string, sv *seriesVal) error {
	h := sv.hist
	var cum int64
	if h != nil {
		for i, c := range h.Counts {
			cum += c
			if c == 0 && i != len(h.Counts)-1 {
				continue // keep output compact: only buckets that grow the count
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				name, withLE(sv.labels, fmtFloat(h.UpperBound(i))), cum); err != nil {
				return err
			}
		}
	}
	var sum float64
	var count int64
	if h != nil {
		sum, count = h.Sum, h.Count
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(sv.labels, "+Inf"), count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
		name, sv.labels, fmtFloat(sum), name, sv.labels, count); err != nil {
		return err
	}
	// NaN observations live outside the buckets (they have no magnitude);
	// surface them as their own counter series only when any occurred, so
	// healthy runs keep a byte-stable exposition.
	if h != nil && h.NaNCount > 0 {
		if _, err := fmt.Fprintf(w, "%s_nan_count%s %d\n", name, sv.labels, h.NaNCount); err != nil {
			return err
		}
	}
	return nil
}

// withLE splices an le label into a rendered label set.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- The collector's instrument set ----

// instruments holds the handles the collector refreshes at publication
// points. Engine-dimensioned families are (re)built by reset once the run's
// dimensions are known.
type instruments struct {
	reg *Registry

	virtualTime Value
	windows     Value
	imbalance   Value
	crossBytes  Value
	totalBytes  Value
	flowsDone   Value
	drops       Value
	linkBytes   Value
	linkPackets Value

	engineCharges []Value
	matrixBytes   []Value // engines×engines, row-major
	matrixPackets []Value

	queueDelay HistValue
	fct        HistValue

	// loads is publishWindow's scratch for the imbalance computation,
	// persistent so publication adds no per-call allocations.
	loads []float64
	// engines is the dimension the handle slices were built for; a reset to
	// the same dimension zeroes values in place instead of rebuilding.
	engines int
}

func newInstruments(reg *Registry) *instruments {
	return &instruments{reg: reg, engines: -1}
}

func (in *instruments) reset(d Dims) {
	if d.Engines == in.engines {
		in.reg.ZeroAll()
		return
	}
	in.engines = d.Engines
	in.reg.ResetRegistry()
	in.virtualTime = in.reg.Gauge("massf_virtual_time_seconds",
		"Virtual time of the last published synchronization window barrier.")
	in.windows = in.reg.Counter("massf_windows_total",
		"Synchronization windows executed.")
	in.imbalance = in.reg.Gauge("massf_load_imbalance",
		"Normalized standard deviation of cumulative per-engine kernel-event load.")
	in.crossBytes = in.reg.Counter("massf_cross_engine_bytes_total",
		"Bytes forwarded between distinct engines.")
	in.totalBytes = in.reg.Counter("massf_forwarded_bytes_total",
		"Bytes forwarded over all links (both intra- and cross-engine).")
	in.flowsDone = in.reg.Counter("massf_flows_completed_total",
		"Flows fully delivered to their destination host.")
	in.drops = in.reg.Counter("massf_dropped_packets_total",
		"Packets tail-dropped at full link buffers.")
	in.linkBytes = in.reg.Counter("massf_link_tx_bytes_total",
		"Bytes transmitted over all virtual links.")
	in.linkPackets = in.reg.Counter("massf_link_tx_packets_total",
		"Packets transmitted over all virtual links.")

	in.engineCharges = make([]Value, d.Engines)
	in.matrixBytes = make([]Value, d.Engines*d.Engines)
	in.matrixPackets = make([]Value, d.Engines*d.Engines)
	for e := 0; e < d.Engines; e++ {
		el := Label{"engine", strconv.Itoa(e)}
		in.engineCharges[e] = in.reg.Counter("massf_engine_charges_total",
			"Cumulative kernel-event load per engine.", el)
		for dst := 0; dst < d.Engines; dst++ {
			ls := []Label{{"src", strconv.Itoa(e)}, {"dst", strconv.Itoa(dst)}}
			in.matrixBytes[e*d.Engines+dst] = in.reg.Counter("massf_traffic_matrix_bytes_total",
				"Bytes handed from engine src to engine dst.", ls...)
			in.matrixPackets[e*d.Engines+dst] = in.reg.Counter("massf_traffic_matrix_packets_total",
				"Packets handed from engine src to engine dst.", ls...)
		}
	}
	in.queueDelay = in.reg.Histogram("massf_queue_delay_seconds",
		"Per-hop transmitter queueing delay (all engines merged).")
	in.fct = in.reg.Histogram("massf_flow_completion_seconds",
		"Flow completion times (all engines merged).")
}

// publish refreshes every value from the collector's barrier state. Called
// at measurement-window crossings and at Finish with c.mu held (engines
// quiesced at the barrier).
func (in *instruments) publish(c *Collector) {
	in.virtualTime.Set(c.virtualTime)
	in.windows.Set(float64(c.windows))
	in.loads = in.loads[:0]
	for i, ch := range c.engineCharges {
		in.engineCharges[i].Set(float64(ch))
		in.loads = append(in.loads, float64(ch))
	}
	in.imbalance.Set(metrics.Imbalance(in.loads))
	for i, v := range c.matrixBytes {
		in.matrixBytes[i].Set(float64(v))
		in.matrixPackets[i].Set(float64(c.matrixPackets[i]))
	}
	cross, total := c.crossTotal()
	in.crossBytes.Set(float64(cross))
	in.totalBytes.Set(float64(total))
	in.flowsDone.Set(float64(c.fctAll.Count))
	in.drops.Set(float64(c.drops))
	var bytes, packets int64
	for i, v := range c.linkTxBytes {
		bytes += v
		packets += c.linkTxPackets[i]
	}
	in.linkBytes.Set(float64(bytes))
	in.linkPackets.Set(float64(packets))
	in.queueDelay.Set(c.queueDelayAll)
	in.fct.Set(c.fctAll)
}
