package telemetry

import (
	"encoding/json"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// ClusterHealth is the coordinator's live cluster-health signal: worker
// count, per-worker straggler attribution (gated-window counts and
// critical-path share from the tracing timeline), the window-lag histogram,
// and measured heartbeat round trips. WriteExposition (which MountCluster
// appends to /metrics) and WriteHealthz both render these fields.
//
// Everything except the RTT gauges derives from the deterministic modeled
// timeline; RTTs are wall-clock by nature and only exist while heartbeat
// probing is active.
type ClusterHealth struct {
	mu      sync.Mutex
	workers int
	windows int64
	lag     *metrics.Histogram
	// Per-worker values, keyed by worker id. A worker appears once it has
	// gated a window, been attributed a share or reported an RTT.
	gated map[int]int64
	share map[int]float64
	rtt   map[int]float64
}

// NewClusterHealth returns an empty cluster-health signal.
func NewClusterHealth() *ClusterHealth {
	return &ClusterHealth{
		lag:   metrics.MustLogHistogram(1e-9, 1e3, 4),
		gated: make(map[int]int64),
		share: make(map[int]float64),
		rtt:   make(map[int]float64),
	}
}

// WriteExposition renders the cluster families in the Prometheus text
// format. A per-worker family appears once a worker has a value in it; the
// lag histogram renders empty until a worker gates a window.
func (h *ClusterHealth) WriteExposition(w io.Writer) error {
	var b exposition
	h.mu.Lock()
	lag := h.lag
	if len(h.gated) == 0 {
		lag = nil
	}
	b.family("massf_cluster_windows_total", "counter",
		"Synchronization windows committed by the coordinator.", series{"", float64(h.windows)})
	b.family("massf_cluster_workers", "gauge",
		"Workers currently active in the distributed run.", series{"", float64(h.workers)})
	b.histogram("massf_window_lag_seconds",
		"Per-window modeled gap between the gating worker and the runner-up.", lag)
	b.family("massf_worker_critical_path_share", "gauge",
		"Fraction of the run's modeled critical path attributed to this worker.", perWorker(h.share)...)
	b.family("massf_worker_gated_windows_total", "counter",
		"Windows this worker's engines gated (held the critical path).", perWorker(h.gated)...)
	b.family("massf_worker_heartbeat_rtt_seconds", "gauge",
		"Last measured heartbeat round-trip time to this worker.", perWorker(h.rtt)...)
	h.mu.Unlock()
	_, err := w.Write(b.Bytes())
	return err
}

// perWorker lists a per-worker map as worker-labelled series.
func perWorker[V int64 | float64](m map[int]V) []series {
	ss := make([]series, 0, len(m))
	for id, v := range m {
		ss = append(ss, series{idLabel("worker", id), float64(v)})
	}
	return ss
}

// SetWorkers records the active worker count.
func (h *ClusterHealth) SetWorkers(n int) {
	h.mu.Lock()
	h.workers = n
	h.mu.Unlock()
}

// ObserveWindow accounts one committed window: the gating worker's
// gated-window counter bumps and the lag histogram absorbs the gap to the
// runner-up. worker < 0 (an all-idle window) only counts the window.
func (h *ClusterHealth) ObserveWindow(worker int, lag float64) {
	h.mu.Lock()
	h.windows++
	if worker >= 0 {
		h.gated[worker]++
		h.lag.Observe(lag)
	}
	h.mu.Unlock()
}

// SetAttribution records each listed worker's critical-path share from the
// timeline's current attribution.
func (h *ClusterHealth) SetAttribution(health []obs.WorkerHealth) {
	h.mu.Lock()
	for _, wh := range health {
		h.share[wh.Worker] = wh.Share
	}
	h.mu.Unlock()
}

// ObserveRTT records a measured heartbeat PING→PONG round trip for a worker.
func (h *ClusterHealth) ObserveRTT(worker int, rtt time.Duration) {
	h.mu.Lock()
	h.rtt[worker] = rtt.Seconds()
	h.mu.Unlock()
}

// healthzWorker is one worker's row in the /healthz document.
type healthzWorker struct {
	Worker            int     `json:"worker"`
	GatedWindows      int64   `json:"gated_windows"`
	CriticalPathShare float64 `json:"critical_path_share"`
	HeartbeatRTT      float64 `json:"heartbeat_rtt_seconds,omitempty"`
}

// healthzDoc is the /healthz body.
type healthzDoc struct {
	Status  string          `json:"status"`
	Workers int             `json:"workers"`
	Windows int64           `json:"windows"`
	Detail  []healthzWorker `json:"worker_detail,omitempty"`
}

// WriteHealthz renders a machine-readable health summary: active worker
// count, committed windows, and the per-worker attribution rows sorted by
// worker id.
func (h *ClusterHealth) WriteHealthz(w io.Writer) error {
	h.mu.Lock()
	doc := healthzDoc{Status: "ok", Workers: h.workers, Windows: h.windows}
	ids := make([]int, 0, len(h.gated)+len(h.rtt))
	for id := range h.gated {
		ids = append(ids, id)
	}
	for id := range h.rtt {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range slices.Compact(ids) {
		doc.Detail = append(doc.Detail, healthzWorker{
			Worker:            id,
			GatedWindows:      h.gated[id],
			CriticalPathShare: h.share[id],
			HeartbeatRTT:      h.rtt[id],
		})
	}
	h.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}
