package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/metrics"
)

// The Prometheus text exposition format (version 0.0.4), rendered straight
// from a collector's state: a fixed family list in name order, series in the
// order of their rendered label sets, and floats in strconv's shortest 'g'
// form, so two identical runs expose byte-identical /metrics bodies (the same
// contract as obs.Trace). Every label value is a decimal id, so none needs
// escaping.

// series is one sample of a counter or gauge family.
type series struct {
	labels string // rendered `{k="v",...}`, or "" for unlabelled
	value  float64
}

// idLabel renders the label set {key="id"}.
func idLabel(key string, id int) string {
	return `{` + key + `="` + strconv.Itoa(id) + `"}`
}

// exposition accumulates one /metrics body.
type exposition struct{ bytes.Buffer }

// family renders a counter or gauge family, its series ordered by their
// rendered label sets (so id "10" sorts before "2"). A family without series
// renders nothing.
func (b *exposition) family(name, kind, help string, ss ...series) {
	if len(ss) == 0 {
		return
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	for _, s := range ss {
		fmt.Fprintf(b, "%s%s %s\n", name, s.labels, fmtFloat(s.value))
	}
}

// histogram renders an unlabelled histogram family as cumulative le buckets
// plus _sum and _count, following the Prometheus histogram convention. A nil
// h, one never merged, renders only the +Inf bucket, _sum and _count.
func (b *exposition) histogram(name, help string, h *metrics.Histogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var sum float64
	var count, cum int64
	if h != nil {
		for i, c := range h.Counts {
			cum += c
			if c == 0 && i != len(h.Counts)-1 {
				continue // keep output compact: only buckets that grow the count
			}
			fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d\n", name, fmtFloat(h.UpperBound(i)), cum)
		}
		sum, count = h.Sum, h.Count
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n", name, count, name, fmtFloat(sum), name, count)
	// NaN observations live outside the buckets (they have no magnitude);
	// surface them as their own counter series only when any occurred, so
	// healthy runs keep a byte-stable exposition.
	if h != nil && h.NaNCount > 0 {
		fmt.Fprintf(b, "%s_nan_count %d\n", name, h.NaNCount)
	}
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteExposition renders the collector's state in the Prometheus text
// format. It reads the fields Snapshot reads, under the same lock, so the two
// agree at every barrier; live, each family refreshes at the cadence the
// package comment lists. An unsized collector renders nothing.
func (c *Collector) WriteExposition(w io.Writer) error {
	var b exposition
	c.mu.RLock()
	if c.sized {
		c.render(&b)
	}
	c.mu.RUnlock()
	_, err := w.Write(b.Bytes())
	return err
}

// render writes every family. Caller holds mu.
func (c *Collector) render(b *exposition) {
	e := c.dims.Engines
	charges := make([]series, e)
	for i, ch := range c.engineCharges {
		charges[i] = series{idLabel("engine", i), float64(ch)}
	}
	matrixBytes := make([]series, e*e)
	matrixPackets := make([]series, e*e)
	for i, v := range c.matrixBytes {
		cell := `{dst="` + strconv.Itoa(i%e) + `",src="` + strconv.Itoa(i/e) + `"}`
		matrixBytes[i] = series{cell, float64(v)}
		matrixPackets[i] = series{cell, float64(c.matrixPackets[i])}
	}
	linkBytes, linkPackets := metrics.Sum(c.linkTxBytes), metrics.Sum(c.linkTxPackets)
	queueDelay, fct := c.queueDelayAll, c.fctAll
	if !c.merged {
		queueDelay, fct = nil, nil
	}
	cross, total := c.crossTotal()
	one := func(v float64) series { return series{"", v} }

	b.family("massf_cross_engine_bytes_total", "counter",
		"Bytes forwarded between distinct engines.", one(float64(cross)))
	b.family("massf_dropped_packets_total", "counter",
		"Packets tail-dropped at full link buffers.", one(float64(c.drops)))
	b.family("massf_engine_charges_total", "counter",
		"Cumulative kernel-event load per engine.", charges...)
	b.histogram("massf_flow_completion_seconds",
		"Flow completion times (all engines merged).", fct)
	b.family("massf_flows_completed_total", "counter",
		"Flows fully delivered to their destination host.", one(float64(c.fctAll.Count)))
	b.family("massf_forwarded_bytes_total", "counter",
		"Bytes forwarded over all links (both intra- and cross-engine).", one(float64(total)))
	b.family("massf_link_tx_bytes_total", "counter",
		"Bytes transmitted over all virtual links.", one(float64(linkBytes)))
	b.family("massf_link_tx_packets_total", "counter",
		"Packets transmitted over all virtual links.", one(float64(linkPackets)))
	b.family("massf_load_imbalance", "gauge",
		"Normalized standard deviation of cumulative per-engine kernel-event load.", one(c.imbalance()))
	b.histogram("massf_queue_delay_seconds",
		"Per-hop transmitter queueing delay (all engines merged).", queueDelay)
	b.family("massf_traffic_matrix_bytes_total", "counter",
		"Bytes handed from engine src to engine dst.", matrixBytes...)
	b.family("massf_traffic_matrix_packets_total", "counter",
		"Packets handed from engine src to engine dst.", matrixPackets...)
	b.family("massf_virtual_time_seconds", "gauge",
		"Virtual time of the last published synchronization window barrier.", one(c.virtualTime))
	b.family("massf_windows_total", "counter",
		"Synchronization windows executed.", one(float64(c.windows)))
}
